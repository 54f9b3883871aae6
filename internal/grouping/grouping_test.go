package grouping

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func sampleMembers() []Member {
	return []Member{
		{Name: "a.sz", Data: []byte("alpha")},
		{Name: "b.sz", Data: []byte("")},
		{Name: "dir/c.sz", Data: bytes.Repeat([]byte{0xCD}, 1000)},
	}
}

func TestPackUnpackIdentity(t *testing.T) {
	members := sampleMembers()
	arch, err := Pack(members)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unpack(arch)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(members) {
		t.Fatalf("count %d != %d", len(back), len(members))
	}
	for i := range members {
		if back[i].Name != members[i].Name {
			t.Errorf("name %q != %q", back[i].Name, members[i].Name)
		}
		if !bytes.Equal(back[i].Data, members[i].Data) {
			t.Errorf("member %d data mismatch", i)
		}
	}
}

func TestPackErrors(t *testing.T) {
	if _, err := Pack(nil); err == nil {
		t.Error("empty pack must error")
	}
	if _, err := Pack([]Member{{Name: "", Data: []byte("x")}}); err == nil {
		t.Error("empty name must error")
	}
	if _, err := Pack([]Member{{Name: strings.Repeat("n", 70000), Data: nil}}); err == nil {
		t.Error("oversized name must error")
	}
}

func TestUnpackCorrupt(t *testing.T) {
	arch, err := Pack(sampleMembers())
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		nil,
		{1, 2, 3},
		arch[:10],
		arch[:len(arch)-3],
	}
	for i, c := range cases {
		if _, err := Unpack(c); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	bad := append([]byte{}, arch...)
	bad[0] ^= 0xFF
	if _, err := Unpack(bad); err == nil {
		t.Error("bad magic must error")
	}
}

// TestUnpackHostileHeader: a header's member count is bounded by the
// entries the archive can hold before anything is reserved for them (an
// 8-byte archive claiming 2^20 members once reserved 72 MB), and an entry
// with an empty name — which Pack never writes — is rejected.
func TestUnpackHostileHeader(t *testing.T) {
	header := func(count uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, groupMagic)
		return binary.LittleEndian.AppendUint32(b, count)
	}
	hostile := header(1 << 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Unpack(hostile)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("8-byte archive claiming 2^20 members: %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("rejecting an 8-byte archive allocated %d bytes", got)
	}

	unnamed := header(1)
	unnamed = binary.LittleEndian.AppendUint16(unnamed, 0)
	unnamed = binary.LittleEndian.AppendUint64(unnamed, uint64(len(unnamed)+16))
	unnamed = binary.LittleEndian.AppendUint64(unnamed, 1)
	unnamed = append(unnamed, 'x')
	if _, err := Unpack(unnamed); !errors.Is(err, ErrCorrupt) {
		t.Errorf("member with an empty name: %v, want ErrCorrupt", err)
	}
}

// wrappingSize returns a one-member archive whose size field is rewritten
// so offset+size wraps past 2^64 to just below the offset.
func wrappingSize(t testing.TB) []byte {
	const name = "m"
	arch, err := Pack([]Member{{Name: name, Data: []byte("payload")}})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(arch[8+2+len(name)+8:], 1<<64-6)
	return arch
}

// TestUnpackWrappingSize: a member size near 2^64 once wrapped the bounds
// check's offset+size back into range and panicked slicing the archive —
// reachable from delivered bytes in the verify stage.
func TestUnpackWrappingSize(t *testing.T) {
	if _, err := Unpack(wrappingSize(t)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("size 2^64-6: %v, want ErrCorrupt", err)
	}
}

// FuzzUnpack: arbitrary bytes must unpack or fail with ErrCorrupt, never
// panic; an accepted archive's members must survive a Pack/Unpack round
// trip.
func FuzzUnpack(f *testing.F) {
	arch, err := Pack(sampleMembers())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(arch)
	f.Add(wrappingSize(f))
	f.Fuzz(func(t *testing.T, archive []byte) {
		members, err := Unpack(archive)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		again, err := Pack(members)
		if err != nil {
			t.Fatalf("re-pack of accepted members: %v", err)
		}
		back, err := Unpack(again)
		if err != nil || len(back) != len(members) {
			t.Fatalf("re-unpack: %d members, %v", len(back), err)
		}
		for i := range members {
			if back[i].Name != members[i].Name || !bytes.Equal(back[i].Data, members[i].Data) {
				t.Fatalf("member %d changed across a round trip", i)
			}
		}
	})
}

func TestPackUnpackQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%20 + 1
		members := make([]Member, count)
		for i := range members {
			nameLen := rng.Intn(30) + 1
			name := make([]byte, nameLen)
			for j := range name {
				name[j] = byte('a' + rng.Intn(26))
			}
			data := make([]byte, rng.Intn(500))
			rng.Read(data)
			members[i] = Member{Name: string(name), Data: data}
		}
		arch, err := Pack(members)
		if err != nil {
			return false
		}
		back, err := Unpack(arch)
		if err != nil || len(back) != count {
			return false
		}
		for i := range members {
			if back[i].Name != members[i].Name || !bytes.Equal(back[i].Data, members[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanByWorldSize(t *testing.T) {
	sizes := []int64{10, 20, 30, 40, 50, 60, 70}
	plan, err := Plan(sizes, ByWorldSize, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 3 {
		t.Fatalf("groups = %d", len(plan))
	}
	assertCoverage(t, plan, len(sizes))
	// World size larger than files clamps.
	plan, err = Plan(sizes, ByWorldSize, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != len(sizes) {
		t.Fatalf("clamped groups = %d", len(plan))
	}
}

func TestPlanByTargetSize(t *testing.T) {
	sizes := []int64{40, 40, 40, 40, 100, 10, 10}
	plan, err := Plan(sizes, ByTargetSize, 100)
	if err != nil {
		t.Fatal(err)
	}
	assertCoverage(t, plan, len(sizes))
	for g, idxs := range plan {
		var total int64
		for _, i := range idxs {
			total += sizes[i]
		}
		// A group may exceed target only when a single file does.
		if total > 100 && len(idxs) > 1 {
			t.Errorf("group %d exceeds target with %d members (%d bytes)", g, len(idxs), total)
		}
	}
}

func TestPlanSingleArchive(t *testing.T) {
	sizes := []int64{1, 2, 3}
	plan, err := Plan(sizes, SingleArchive, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 1 || len(plan[0]) != 3 {
		t.Fatalf("plan = %v", plan)
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := Plan(nil, ByWorldSize, 4); err == nil {
		t.Error("no files must error")
	}
	if _, err := Plan([]int64{1}, ByWorldSize, 0); err == nil {
		t.Error("zero world must error")
	}
	if _, err := Plan([]int64{1}, ByTargetSize, 0); err == nil {
		t.Error("zero target must error")
	}
	if _, err := Plan([]int64{1}, Strategy(99), 0); err == nil {
		t.Error("unknown strategy must error")
	}
}

func assertCoverage(t *testing.T, plan [][]int, n int) {
	t.Helper()
	seen := make([]bool, n)
	for _, g := range plan {
		for _, i := range g {
			if i < 0 || i >= n {
				t.Fatalf("index %d out of range", i)
			}
			if seen[i] {
				t.Fatalf("index %d assigned twice", i)
			}
			seen[i] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d unassigned", i)
		}
	}
}

func TestGroupSizes(t *testing.T) {
	sizes := []int64{100, 200, 300}
	plan := [][]int{{0, 1}, {2}}
	gs := GroupSizes(sizes, plan)
	if len(gs) != 2 {
		t.Fatalf("gs = %v", gs)
	}
	if gs[0] <= 300 || gs[1] <= 300 {
		t.Fatalf("group sizes must include bodies + overhead: %v", gs)
	}
}

func TestMetadata(t *testing.T) {
	names := []string{"x.dat", "y.dat", "z.dat"}
	plan := [][]int{{0, 2}, {1}}
	md := Metadata(names, plan, ByWorldSize)
	for _, want := range []string{"strategy: by-world-size", "groups: 2", "files: 3", "x.dat", "y.dat", "z.dat"} {
		if !strings.Contains(md, want) {
			t.Errorf("metadata missing %q:\n%s", want, md)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if ByWorldSize.String() == "" || ByTargetSize.String() == "" || SingleArchive.String() == "" {
		t.Fatal("empty strategy strings")
	}
	if Strategy(42).String() == "" {
		t.Fatal("unknown strategy String empty")
	}
}

func BenchmarkPack(b *testing.B) {
	members := make([]Member, 64)
	for i := range members {
		members[i] = Member{Name: "file.sz", Data: bytes.Repeat([]byte{byte(i)}, 4096)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Pack(members); err != nil {
			b.Fatal(err)
		}
	}
}
