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
	streams map[int][]byte // compressed streams not yet in an archive
	// parts holds chunked fields' chunk streams by chunk index, and left
	// counts the ones still to come, until a field's last chunk arrives.
	parts map[int][][]byte
	left  map[int]int
	// cur is the group being filled (pipelined engine).
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
	p := &packer{c: c, streams: make(map[int][]byte), parts: make(map[int][][]byte), left: make(map[int]int)}
	if c.manifest != nil {
		p.firstID = c.manifest.MaxGroupID() + 1
	}
	return p
}

// wantSize is how many members the group being filled takes under
// ByWorldSize (0 under the other strategies: no member count closes a
// group). The pipelined engine fills exactly `world` balanced groups — the
// first n%world get one extra member, matching the round-robin plan's sizes
// — so the archive count, and hence per-file WAN overhead, is identical to
// the barrier engine's.
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
// depend on the worker count or completion order. The barrier engines only
// hold a field's stream; the pipelined engine emits a group the moment it
// fills, so the transfer stage can start while later fields are still
// compressing (ByTargetSize fills byte-budget groups; SingleArchive
// degenerates to one flush).
func (p *packer) add(ctx context.Context, it compressedItem, emit func(group) error) error {
	stream := it.stream
	if j := &p.c.jobs[it.idx]; j.chunks != nil {
		if p.parts[it.idx] == nil {
			p.parts[it.idx], p.left[it.idx] = make([][]byte, len(j.chunks)), len(j.chunks)
		}
		p.parts[it.idx][it.rng.Index] = it.stream
		if p.left[it.idx]--; p.left[it.idx] > 0 {
			return nil
		}
		var err error
		if stream, err = sz.AssembleChunks(p.parts[it.idx]); err != nil {
			return fmt.Errorf("core: assemble %s: %w", j.field.ID(), err)
		}
		delete(p.parts, it.idx)
		delete(p.left, it.idx)
		p.c.h.led.chunks.add(int64(len(j.chunks)))
	}
	p.c.h.led.compressedBytes.add(int64(len(stream)))
	spec := &p.c.spec
	if spec.Engine != EnginePipelined {
		p.streams[it.idx] = stream
		return nil
	}
	size := int64(len(stream))
	if spec.GroupStrategy == grouping.ByTargetSize && p.curBytes > 0 && p.curBytes+size > spec.GroupParam {
		if err := p.flushCur(ctx, emit); err != nil {
			return err
		}
	}
	p.streams[it.idx] = stream
	p.cur = append(p.cur, it.idx)
	p.curBytes += size
	if len(p.cur) == p.wantSize() {
		return p.flushCur(ctx, emit)
	}
	return nil
}

// flush runs once the compress stage is exhausted. The barrier engines
// group exactly as grouping.Plan says over the active inventory; the
// pipelined engine drains its partial group.
func (p *packer) flush(ctx context.Context, emit func(group) error) error {
	if p.c.spec.Engine == EnginePipelined {
		return p.flushCur(ctx, emit)
	}
	active := p.c.active
	sizes := make([]int64, len(active))
	for k, i := range active {
		sizes[k] = int64(len(p.streams[i]))
	}
	plan, err := grouping.Plan(sizes, p.c.spec.GroupStrategy, p.c.spec.GroupParam)
	if err != nil {
		return err
	}
	for _, pos := range plan {
		idxs := make([]int, len(pos))
		for k, at := range pos {
			idxs[k] = active[at]
		}
		if err := p.emitGroup(ctx, idxs, emit); err != nil {
			return err
		}
	}
	return nil
}

func (p *packer) flushCur(ctx context.Context, emit func(group) error) error {
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

// emitGroup packs, frames and journals one group, then hands it on.
func (p *packer) emitGroup(ctx context.Context, idxs []int, emit func(group) error) error {
	c, id := p.c, p.firstID+len(p.plan)
	_, span := c.spec.Obs.StartSpan(ctx, "pack",
		obs.Int("group", int64(id)), obs.Int("members", int64(len(idxs))))
	defer span.End()
	members := make([]grouping.Member, 0, len(idxs))
	for _, i := range idxs {
		members = append(members, grouping.Member{Name: c.jobs[i].name, Data: p.streams[i]})
		delete(p.streams, i)
	}
	arch, err := grouping.Pack(members)
	if err != nil {
		return err
	}
	// Frame the archive at pack time: per-member CRC-32C digests plus a
	// payload digest, all checked before a byte is decompressed. The
	// journal digest below covers the framed bytes — the exact wire
	// payload — so journal, frame, and transport agree on one identity.
	sums := make([]uint32, len(members))
	for k, m := range members {
		sums[k] = integrity.Checksum(m.Data)
	}
	arch = integrity.Wrap(arch, sums)
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
