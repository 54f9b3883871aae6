package cluster

import (
	"testing"

	"ocelot/internal/sim"
)

func anvil() *Machine { return Standard()["Anvil"] }

func uniformSizes(n int, size int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = size
	}
	return out
}

func TestStandardMachinesValid(t *testing.T) {
	for name, m := range Standard() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	bad := []*Machine{
		{Name: "x", Nodes: 0, CoresPerNode: 1, CompressMBpsPerCore: 1, DecompressMBpsPerCore: 1, PFSWriteMBps: 1, IOKneeNodes: 1},
		{Name: "x", Nodes: 1, CoresPerNode: 1, CompressMBpsPerCore: 0, DecompressMBpsPerCore: 1, PFSWriteMBps: 1, IOKneeNodes: 1},
		{Name: "x", Nodes: 1, CoresPerNode: 1, CompressMBpsPerCore: 1, DecompressMBpsPerCore: 1, PFSWriteMBps: 0, IOKneeNodes: 1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

// TestFig9CompressionScaling: compression time falls with node count until
// core count reaches the file count (paper Fig 9 left).
func TestFig9CompressionScaling(t *testing.T) {
	m := anvil()
	sizes := uniformSizes(768, 150e6) // Miranda-like: 768 files of 150MB
	var prev float64 = 1e18
	for _, nodes := range []int{1, 2, 4, 6} {
		tt := m.CompressTime(sizes, nodes)
		if tt >= prev {
			t.Errorf("compression time should fall: nodes=%d t=%.2f prev=%.2f", nodes, tt, prev)
		}
		prev = tt
	}
	// Saturation: 768 files, 6 nodes = 768 cores; more nodes don't help.
	t6 := m.CompressTime(sizes, 6)
	t16 := m.CompressTime(sizes, 16)
	if t16 < 0.95*t6 {
		t.Errorf("beyond saturation compression kept speeding up: %v vs %v", t16, t6)
	}
}

// TestFig9DecompressionContention: decompression improves to the PFS knee
// then degrades (paper Fig 9 right; CESM: 68.7s on 4 nodes, >5min on 16).
func TestFig9DecompressionContention(t *testing.T) {
	m := anvil()
	sizes := uniformSizes(7182, 224e6) // CESM-like
	t4 := m.DecompressTime(sizes, 4)
	t16 := m.DecompressTime(sizes, 16)
	if t16 <= t4 {
		t.Fatalf("I/O contention should slow 16 nodes (%.1fs) vs 4 nodes (%.1fs)", t16, t4)
	}
	if t16 < 3*t4 {
		t.Errorf("contention too weak: %.1fs vs %.1fs (paper: 68.7s -> >300s)", t4, t16)
	}
	t1 := m.DecompressTime(sizes, 1)
	if t4 >= t1 {
		t.Errorf("up to the knee more nodes should help: t1=%.1f t4=%.1f", t1, t4)
	}
}

func TestEmptyAndZeroInputs(t *testing.T) {
	m := anvil()
	if tt := m.CompressTime(nil, 4); tt != 0 {
		t.Errorf("empty file list time = %v", tt)
	}
	if tt := m.CompressTime(uniformSizes(3, 1e6), 0); tt != 0 {
		t.Errorf("zero nodes time = %v", tt)
	}
}

func TestNodesCapped(t *testing.T) {
	m := anvil()
	sizes := uniformSizes(100000, 1e6)
	a := m.CompressTime(sizes, m.Nodes)
	b := m.CompressTime(sizes, m.Nodes*10)
	if a != b {
		t.Errorf("requests beyond machine size should be capped: %v vs %v", a, b)
	}
}

func TestSchedulerImmediateGrant(t *testing.T) {
	clock := sim.NewClock()
	s := NewScheduler(clock, anvil())
	granted := false
	if err := s.Request(16, func() { granted = true }); err != nil {
		t.Fatal(err)
	}
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if !granted {
		t.Fatal("grant never fired")
	}
	if s.FreeNodes() != anvil().Nodes-16 {
		t.Fatalf("free = %d", s.FreeNodes())
	}
}

func TestSchedulerFIFOAndRelease(t *testing.T) {
	clock := sim.NewClock()
	m := &Machine{Name: "tiny", Partition: "p", Nodes: 4, CoresPerNode: 8,
		CompressMBpsPerCore: 10, DecompressMBpsPerCore: 10, PFSWriteMBps: 100, IOKneeNodes: 2}
	s := NewScheduler(clock, m)
	var order []int
	if err := s.Request(4, func() {
		order = append(order, 1)
		clock.After(10, func() { s.Release(4) })
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Request(2, func() { order = append(order, 2) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Request(2, func() { order = append(order, 3) }); err != nil {
		t.Fatal(err)
	}
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("grant order = %v", order)
	}
	if clock.Now() < 10 {
		t.Fatalf("second grant should wait for release: now=%v", clock.Now())
	}
}

func TestSchedulerRejects(t *testing.T) {
	clock := sim.NewClock()
	s := NewScheduler(clock, anvil())
	if err := s.Request(0, func() {}); err == nil {
		t.Error("zero nodes must error")
	}
	if err := s.Request(anvil().Nodes+1, func() {}); err == nil {
		t.Error("oversized request must error")
	}
}

func TestWaitModel(t *testing.T) {
	clock := sim.NewClock()
	s := NewScheduler(clock, anvil())
	s.SetWaitModel(42, 30, 0, 0)
	var grantTime float64 = -1
	if err := s.Request(8, func() { grantTime = clock.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if grantTime <= 0 {
		t.Fatalf("extra wait was not applied: grant at %v", grantTime)
	}
	// Disabled model grants immediately.
	clock2 := sim.NewClock()
	s2 := NewScheduler(clock2, anvil())
	s2.SetWaitModel(42, 0, 0, 0)
	var g2 float64 = -1
	if err := s2.Request(8, func() { g2 = clock2.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := clock2.Run(); err != nil {
		t.Fatal(err)
	}
	if g2 != 0 {
		t.Fatalf("no-wait model granted at %v", g2)
	}
}

func TestWaitModelDeterministic(t *testing.T) {
	run := func() float64 {
		clock := sim.NewClock()
		s := NewScheduler(clock, anvil())
		s.SetWaitModel(7, 60, 0.3, 600)
		var at float64
		_ = s.Request(4, func() { at = clock.Now() })
		_ = clock.Run()
		return at
	}
	if run() != run() {
		t.Fatal("wait model not deterministic")
	}
}

// TestFig9TimesPinned pins Fig 9's analytic compress/decompress seconds on
// Anvil, exactly, for the three paper inventories at 1–16 nodes: the
// makespan scheduler may change shape, never these numbers.
func TestFig9TimesPinned(t *testing.T) {
	m := anvil()
	cases := []struct {
		files      int
		bytes      int64
		nodes      int
		comp, dcmp float64
	}{
		{768, 150e6, 1, 36, 11.25},
		{768, 150e6, 2, 18, 5.625},
		{768, 150e6, 4, 12, 4.8},
		{768, 150e6, 8, 6, 10.8},
		{768, 150e6, 16, 6, 39},
		{7182, 224e6, 1, 510.7199999999996, 159.60000000000005},
		{7182, 224e6, 2, 259.84000000000015, 81.19999999999996},
		{7182, 224e6, 4, 134.40000000000006, 67.032},
		{7182, 224e6, 8, 71.68, 150.822},
		{7182, 224e6, 16, 35.84, 544.635},
		{3601, 189e6, 1, 219.24000000000004, 68.51249999999996},
		{3601, 189e6, 2, 113.40000000000002, 35.4375},
		{3601, 189e6, 4, 60.480000000000004, 28.357875},
		{3601, 189e6, 8, 30.24, 63.80521875},
		{3601, 189e6, 16, 15.12, 230.407734375},
	}
	for _, c := range cases {
		sizes := uniformSizes(c.files, c.bytes)
		if got := m.CompressTime(sizes, c.nodes); got != c.comp {
			t.Errorf("%d files, %d nodes: compress = %v, want %v", c.files, c.nodes, got, c.comp)
		}
		if got := m.DecompressTime(sizes, c.nodes); got != c.dcmp {
			t.Errorf("%d files, %d nodes: decompress = %v, want %v", c.files, c.nodes, got, c.dcmp)
		}
	}
}

func TestKNLSlowerThanMilan(t *testing.T) {
	ms := Standard()
	sizes := uniformSizes(64, 100e6)
	knl := ms["BebopKNL"].CompressTime(sizes, 1)
	anv := ms["Anvil"].CompressTime(sizes, 1)
	if knl <= anv {
		t.Errorf("KNL (%v) should be slower than Anvil (%v)", knl, anv)
	}
}
