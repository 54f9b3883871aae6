package core

import (
	"context"
	"fmt"
	"sort"

	"ocelot/internal/grouping"
	"ocelot/internal/integrity"
	"ocelot/internal/obs"
	"ocelot/internal/sz"
)

// packer is the pack stage's state. It is only touched by the stage's
// single worker, so it needs no locking until after Wait.
type packer struct {
	c       *campaign
	streams map[int]compressedItem // compressed streams not yet in an archive
	// parts holds chunked fields' chunk streams by chunk index, and left
	// counts the ones still to come, until a field's last chunk arrives.
	parts map[int][]compressedItem
	left  map[int]int
	// cur is the group being filled.
	cur      []int
	curBytes int64
	// plan and groupBytes are the realized groups and their archive sizes,
	// in emit order. Resumed campaigns number new groups after the
	// journal's MaxGroupID (firstID), so ids stay unique across
	// incarnations.
	plan       [][]int
	groupBytes []int64
	firstID    int
}

func newPacker(c *campaign) *packer {
	p := &packer{c: c, streams: make(map[int]compressedItem), parts: make(map[int][]compressedItem), left: make(map[int]int)}
	if c.manifest != nil {
		p.firstID = c.manifest.MaxGroupID() + 1
	}
	return p
}

// wantSize is how many members the group being filled takes under
// ByWorldSize (0 under the other strategies: no member count closes a
// group). The packer fills exactly `world` balanced groups — the first
// n%world get one extra member, matching grouping.Plan's round-robin
// sizes — so the archive count, and hence per-file WAN overhead, is the
// plan's.
func (p *packer) wantSize() int {
	if p.c.spec.GroupStrategy != grouping.ByWorldSize {
		return 0
	}
	n := len(p.c.active)
	world := min(int(p.c.spec.GroupParam), n)
	if len(p.plan) < n%world {
		return n/world + 1
	}
	return n / world
}

// add takes one compressed item. A chunked field's chunks may arrive in
// any order: they wait here until the last one, and its container
// (sz.AssembleChunks) frames them by chunk index, so its bytes never
// depend on the worker count or completion order. A group is emitted the
// moment it fills, so the transfer stage can start while later fields are
// still compressing (ByTargetSize fills byte-budget groups in completion
// order; SingleArchive degenerates to one flush). A stream a codec lent
// (compressedItem.release) goes back once it is copied: a chunk's after
// its container is assembled, a whole field's after its group is packed
// (emitGroup).
func (p *packer) add(ctx context.Context, it compressedItem, emit func(group) error) error {
	if j := &p.c.jobs[it.idx]; j.chunks != nil {
		if p.parts[it.idx] == nil {
			p.parts[it.idx], p.left[it.idx] = make([]compressedItem, len(j.chunks)), len(j.chunks)
		}
		p.parts[it.idx][it.rng.Index] = it
		if p.left[it.idx]--; p.left[it.idx] > 0 {
			return nil
		}
		parts := p.parts[it.idx]
		streams := make([][]byte, len(parts))
		for k, part := range parts {
			streams[k] = part.stream
		}
		container, err := sz.AssembleChunks(streams)
		for _, part := range parts {
			part.free()
		}
		if err != nil {
			return fmt.Errorf("core: assemble %s: %w", j.field.ID(), err)
		}
		it = compressedItem{chunk: it.chunk, stream: container}
		delete(p.parts, it.idx)
		delete(p.left, it.idx)
		p.c.h.led.chunks.add(int64(len(j.chunks)))
	}
	p.c.h.led.compressedBytes.add(int64(len(it.stream)))
	spec := &p.c.spec
	size := int64(len(it.stream))
	if spec.GroupStrategy == grouping.ByTargetSize && p.curBytes > 0 && p.curBytes+size > spec.GroupParam {
		if err := p.flush(ctx, emit); err != nil {
			return err
		}
	}
	p.streams[it.idx] = it
	p.cur = append(p.cur, it.idx)
	p.curBytes += size
	if len(p.cur) == p.wantSize() {
		return p.flush(ctx, emit)
	}
	return nil
}

// flush emits the group being filled, if it has members: when it fills,
// and once more when the compress stage is exhausted, for the last one.
func (p *packer) flush(ctx context.Context, emit func(group) error) error {
	if len(p.cur) == 0 {
		return nil
	}
	// Streams arrive in completion order; keep members sorted so metadata
	// is stable for a given grouping.
	idxs := p.cur
	sort.Ints(idxs)
	p.cur, p.curBytes = nil, 0
	return p.emitGroup(ctx, idxs, emit)
}

// emitGroup packs, frames and journals one group, then hands it on. The
// members' streams are packed straight into the group's frame (packFrame),
// the one buffer the group costs, and go back to their codec right after.
func (p *packer) emitGroup(ctx context.Context, idxs []int, emit func(group) error) error {
	c, id := p.c, p.firstID+len(p.plan)
	_, span := c.spec.Obs.StartSpan(ctx, "pack",
		obs.Int("group", int64(id)), obs.Int("members", int64(len(idxs))))
	defer span.End()
	members := make([]grouping.Member, 0, len(idxs))
	for _, i := range idxs {
		members = append(members, grouping.Member{Name: c.jobs[i].name, Data: p.streams[i].stream})
	}
	// Frame the archive at pack time: per-member CRC-32C digests plus a
	// payload digest, all checked before a byte is decompressed. The
	// journal digest below covers the framed bytes — the exact wire
	// payload — so journal, frame, and transport agree on one identity.
	arch, err := packFrame(members)
	if err != nil {
		return err
	}
	for _, i := range idxs {
		p.streams[i].free()
		delete(p.streams, i)
	}
	span.Annotate(obs.Int("bytes", int64(len(arch))))
	p.plan = append(p.plan, idxs)
	p.groupBytes = append(p.groupBytes, int64(len(arch)))
	g := group{id: id, idxs: idxs, archive: arch}
	if c.jw != nil {
		g.digest = byteDigest(arch)
		if err := c.jw.Group(id, idxs, g.digest, integrity.PayloadChecksum(arch), int64(len(arch))); err != nil {
			return err
		}
	}
	return emit(g)
}

// frame builds one OCIF frame in one buffer: fill appends a payload of at
// most size bytes to the frame's reserved header (integrity.Reserve) and
// returns the extended frame with the member digests its header records,
// and frame seals the header in place (integrity.Seal). Every frame the
// source ships — a group (emitGroup), a repair (sendRepair), a quarantined
// field's lossless escape (quarantine) — is built here, so no payload is
// copied again into its frame once it is written.
func frame(n, size int, fill func(framed []byte) ([]byte, []uint32, error)) ([]byte, error) {
	framed, sums, err := fill(integrity.Reserve(n, size))
	if err != nil {
		return nil, err
	}
	return integrity.Seal(framed, sums), nil
}

// packFrame frames members' grouping archive, each member recorded by the
// CRC-32C of its bytes: integrity.Wrap(grouping.Pack(members), sums), byte
// for byte, with the archive written straight into the frame.
func packFrame(members []grouping.Member) ([]byte, error) {
	size, err := grouping.Size(members)
	if err != nil {
		return nil, err
	}
	return frame(len(members), size, func(framed []byte) ([]byte, []uint32, error) {
		sums := make([]uint32, len(members))
		for k, m := range members {
			sums[k] = integrity.Checksum(m.Data)
		}
		framed, err := grouping.AppendPack(framed, members)
		return framed, sums, err
	})
}
