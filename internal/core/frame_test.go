package core

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"ocelot/internal/grouping"
	"ocelot/internal/integrity"
	"ocelot/internal/sentinel"
)

// TestPackFrameMatchesWrap: packing members straight into their frame gives
// exactly the bytes of packing them and then wrapping the archive, for
// random member sets — empty and multi-block members, one to seven of them,
// and names up to the longest a member table holds — and both refuse the
// same sets.
func TestPackFrameMatchesWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for round := range 300 {
		members := make([]grouping.Member, 1+rng.Intn(7))
		for k := range members {
			name := strings.Repeat(string(rune('a'+rng.Intn(26))), 1+rng.Intn(40))
			if rng.Intn(10) == 0 {
				name = strings.Repeat("n", 1<<16-1-rng.Intn(4))
			}
			data := make([]byte, rng.Intn(3*integrity.RepairBlock))
			rng.Read(data)
			members[k] = grouping.Member{Name: name, Data: data}
		}
		got, err := packFrame(members)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		packed, err := grouping.Pack(members)
		if err != nil {
			t.Fatal(err)
		}
		sums := make([]uint32, len(members))
		for k, m := range members {
			sums[k] = integrity.Checksum(m.Data)
		}
		if want := integrity.Wrap(packed, sums); !bytes.Equal(got, want) {
			t.Fatalf("round %d: packed frame of %d members (%d bytes) differs from Wrap(Pack) (%d bytes)", round, len(members), len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Fatalf("round %d: frame of %d bytes sits in a %d-byte buffer", round, len(got), cap(got))
		}
	}
	for _, members := range [][]grouping.Member{
		nil,
		{{Name: "", Data: []byte{1}}},
		{{Name: "a"}, {Name: strings.Repeat("n", 1<<16), Data: []byte{2}}},
	} {
		_, perr := grouping.Pack(members)
		if _, err := packFrame(members); err == nil || perr == nil {
			t.Errorf("%d members: packFrame err %v, Pack err %v; want both to refuse", len(members), err, perr)
		}
	}
}

// TestPackStageAllocatesOneFramePerGroup is the pack stage's steady-state
// allocation budget on a szx campaign: each group costs its frame — the
// members' streams are packed straight into it — rounded up to the heap's
// 8 KiB pages, and bookkeeping of a few hundred bytes, not a second
// archive-sized buffer.
func TestPackStageAllocatesOneFramePerGroup(t *testing.T) {
	fields := pipelineFields(t, 4, 8)
	spec := oneGroupSpec("szx", 1)
	spec.GroupParam = 2 // two groups of two members
	c := verifyCampaign(t, fields, spec, false)
	ctx := context.Background()
	var items []compressedItem
	compressAll := func() {
		items = items[:0]
		for _, it := range c.items() {
			if err := c.compress(ctx, it, func(ci compressedItem) { items = append(items, ci) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	var frames []int
	pack := func() {
		p := newPacker(c)
		emit := func(g group) error {
			frames = append(frames, len(g.archive))
			return nil
		}
		for _, it := range items {
			if err := p.add(ctx, it, emit); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.flush(ctx, emit); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range 2 { // warm the pools and the maps
		compressAll()
		pack()
	}
	compressAll()
	frames = frames[:0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pack()
	runtime.ReadMemStats(&after)
	if len(frames) != 2 {
		t.Fatalf("%d groups packed, want 2", len(frames))
	}
	var framed uint64
	for _, n := range frames {
		framed += uint64(n)
	}
	const perGroup = 8<<10 + 2<<10
	if got, limit := after.TotalAlloc-before.TotalAlloc, framed+perGroup*uint64(len(frames)); got > limit {
		t.Fatalf("pack stage allocated %d bytes for %d groups framing %d bytes (budget %d)", got, len(frames), framed, limit)
	}
}

// keepingCorruption is scriptedCorruption that keeps every damaged
// delivery it hands out, with a copy of its bytes as they left.
type keepingCorruption struct {
	scriptedCorruption
	kept [][2][]byte
}

func (k *keepingCorruption) SendDelivered(ctx context.Context, name string, data []byte, w float64) ([]byte, float64, error) {
	out, sec, err := k.scriptedCorruption.SendDelivered(ctx, name, data, w)
	if err == nil && !bytes.Equal(out, data) {
		k.kept = append(k.kept, [2][]byte{out, bytes.Clone(out)})
	}
	return out, sec, err
}

// TestRepairPatchesItsOwnCopy: a repair round patches a copy of the
// damaged delivery, never the delivery itself, which may be a buffer the
// transport or the sender still holds. The group is repaired (the clean
// run's digest) and the delivery reads as it arrived.
func TestRepairPatchesItsOwnCopy(t *testing.T) {
	ctx := context.Background()
	fields := pipelineFields(t, 4, 16)
	spec := CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         2,
		GroupParam:      2,
		Engine:          EnginePipelined,
		Codec:           "szx",
		Transport:       NopTransport{},
		TransferStreams: 1,
		Journal:         filepath.Join(t.TempDir(), "ref.ocjl"),
	}
	ref, err := Run(ctx, fields, spec)
	if err != nil {
		t.Fatal(err)
	}
	tr := &keepingCorruption{scriptedCorruption: scriptedCorruption{wire: groupName(0), damage: map[int]bool{1: true, 2: true}}}
	spec.Transport = tr
	spec.Journal = filepath.Join(t.TempDir(), "repair.ocjl")
	spec.Retry = sentinel.RetryPolicy{MaxAttempts: 3, Sleep: func(ctx context.Context, _ time.Duration) error { return ctx.Err() }}
	res, err := Run(ctx, fields, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReconDigest != ref.ReconDigest || res.Retransmits != 2 {
		t.Fatalf("digest %016x after %d retransmits, want the clean %016x after 2", res.ReconDigest, res.Retransmits, ref.ReconDigest)
	}
	if len(tr.kept) != 2 {
		t.Fatalf("%d damaged deliveries, want 2", len(tr.kept))
	}
	for k, d := range tr.kept {
		if !bytes.Equal(d[0], d[1]) {
			t.Errorf("damaged delivery %d was written to after it arrived", k+1)
		}
	}
}
