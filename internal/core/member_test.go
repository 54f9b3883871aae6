package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ocelot/internal/codec"
	"ocelot/internal/datagen"
	"ocelot/internal/journal"
)

// memberHangGuard bounds waits that only a hang would exhaust; no test
// asserts a latency against it.
const memberHangGuard = 30 * time.Second

// decodeHook wraps the default codec under a name and magic of its own so
// a test can steer decoding member by member. Its streams are the default
// codec's behind a 5-byte prefix: the magic and the index of the field the
// stream encodes, recognised by where the field's data starts. Each
// Decompress runs through the around hook (nil passes), which may hold or
// fail it; the hook can be swapped between campaigns.
type decodeHook struct {
	codec.Codec
	name   string
	magic  uint32
	fields map[*float64]byte
	around atomic.Pointer[func(idx int, decode func() ([]float64, []int, error)) ([]float64, []int, error)]
}

const decodeHookMagic = 0x4B4F4F48 // "HOOK" little-endian

var decodeHookSeq atomic.Uint32

func newDecodeHook(t *testing.T, fields []*datagen.Field) *decodeHook {
	t.Helper()
	n := decodeHookSeq.Add(1)
	h := &decodeHook{Codec: mustCodec(t, ""), name: fmt.Sprintf("hook%d", n), magic: decodeHookMagic + n,
		fields: map[*float64]byte{}}
	for i, f := range fields {
		h.fields[&f.Data[0]] = byte(i)
	}
	codec.Register(h)
	return h
}

// steer sets the hook every later decode runs through.
func (h *decodeHook) steer(around func(idx int, decode func() ([]float64, []int, error)) ([]float64, []int, error)) {
	h.around.Store(&around)
}

func (h *decodeHook) Name() string  { return h.name }
func (h *decodeHook) Magic() uint32 { return h.magic }

func (h *decodeHook) Compress(data []float64, dims []int, p codec.Params) ([]byte, error) {
	inner, err := h.Codec.Compress(data, dims, p)
	if err != nil {
		return nil, err
	}
	out := binary.LittleEndian.AppendUint32(nil, h.magic)
	return append(append(out, h.fields[&data[0]]), inner...), nil
}

func (h *decodeHook) Decompress(stream []byte) ([]float64, []int, error) {
	if len(stream) < 5 || binary.LittleEndian.Uint32(stream) != h.magic {
		return nil, nil, errors.New("hook: bad stream")
	}
	decode := func() ([]float64, []int, error) { return codec.Decompress(stream[5:]) }
	if around := h.around.Load(); around != nil && *around != nil {
		return (*around)(int(stream[4]), decode)
	}
	return decode()
}

func (h *decodeHook) StreamDims(stream []byte) ([]int, error) {
	if len(stream) < 5 {
		return nil, errors.New("hook: short stream")
	}
	return h.Codec.StreamDims(stream[5:])
}

// oneGroupSpec packs every field into one group, so its members are the
// decompress stage's only items.
func oneGroupSpec(codecName string, workers int) CampaignSpec {
	return CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         workers,
		GroupParam:      1,
		Codec:           codecName,
		Transport:       NopTransport{},
		TransferStreams: 1,
	}
}

// TestGroupMembersDecodeInParallel: a group's members are separate decode
// items, so with two workers two members of one group decode at once, and
// no more than Workers ever do. Each decode waits for a second one to
// start: with two workers one arrives, with one worker none can, and the
// short wait there lets the campaign finish serially.
func TestGroupMembersDecodeInParallel(t *testing.T) {
	fields := pipelineFields(t, 3, 32)
	hook := newDecodeHook(t, fields)
	for _, tc := range []struct {
		workers, wantPeak int
		wait              time.Duration
	}{{2, 2, memberHangGuard}, {1, 1, 10 * time.Millisecond}} {
		var mu sync.Mutex
		running, peak := 0, 0
		paired := make(chan struct{})
		hook.steer(func(idx int, decode func() ([]float64, []int, error)) ([]float64, []int, error) {
			mu.Lock()
			if running++; running > peak {
				if peak = running; peak == 2 {
					close(paired)
				}
			}
			mu.Unlock()
			defer func() {
				mu.Lock()
				running--
				mu.Unlock()
			}()
			select {
			case <-paired:
			case <-time.After(tc.wait):
			}
			return decode()
		})
		res, err := Run(context.Background(), fields, oneGroupSpec(hook.Name(), tc.workers))
		if err != nil {
			t.Fatalf("workers %d: %v", tc.workers, err)
		}
		if res.Groups != 1 {
			t.Fatalf("workers %d: %d groups, want 1", tc.workers, res.Groups)
		}
		if peak != tc.wantPeak {
			t.Errorf("workers %d: %d members of one group decoded at once, want %d", tc.workers, peak, tc.wantPeak)
		}
	}
}

// TestKillAfterOneMemberRedoesGroup: a group is acked only when its last
// member verifies. A campaign killed while the second of a group's three
// members decodes, with the first verified, leaves the group unacked, and
// the resume redoes all of it to the uninterrupted run's digest.
func TestKillAfterOneMemberRedoesGroup(t *testing.T) {
	fields := pipelineFields(t, 3, 32)
	hook := newDecodeHook(t, fields)
	dir := t.TempDir()
	spec := oneGroupSpec(hook.Name(), 1)
	spec.Journal = filepath.Join(dir, "ref.ocjl")
	ref, err := Run(context.Background(), fields, spec)
	if err != nil {
		t.Fatal(err)
	}

	var decodes atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	hook.steer(func(idx int, decode func() ([]float64, []int, error)) ([]float64, []int, error) {
		n := decodes.Add(1)
		if n == 1 {
			return decode()
		}
		// The second member: the first has verified (one decode worker
		// takes members one at a time). Hold it until the kill, then fail.
		if n == 2 {
			close(entered)
		}
		<-release
		return nil, nil, errors.New("hook: killed")
	})
	spec.Journal = filepath.Join(dir, "run.ocjl")
	h, err := Submit(context.Background(), fields, spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(memberHangGuard):
		close(release)
		t.Fatalf("no second member decoded within %v", memberHangGuard)
	}
	h.Cancel()
	close(release)
	<-h.Done()
	pre, err := journal.Load(spec.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if pre.AckedGroups() != 0 {
		t.Fatalf("journal acked %d groups after one member of one verified", pre.AckedGroups())
	}

	hook.steer(nil)
	spec.ResumeFrom = spec.Journal
	res, err := Run(context.Background(), fields, spec)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.SkippedGroups != 0 || res.Groups != 1 {
		t.Errorf("resume skipped %d groups and ran %d, want 0 and 1", res.SkippedGroups, res.Groups)
	}
	if res.ReconDigest != ref.ReconDigest {
		t.Errorf("resumed digest %016x, uninterrupted %016x", res.ReconDigest, ref.ReconDigest)
	}
}

// TestFailingMemberFailsCampaign: one member of a group failing to decode
// fails the campaign, and the error names that member.
func TestFailingMemberFailsCampaign(t *testing.T) {
	fields := pipelineFields(t, 3, 32)
	hook := newDecodeHook(t, fields)
	hook.steer(func(idx int, decode func() ([]float64, []int, error)) ([]float64, []int, error) {
		if idx == 1 {
			return nil, nil, errors.New("hook: refused")
		}
		return decode()
	})
	_, err := Run(context.Background(), fields, oneGroupSpec(hook.Name(), 2))
	if err == nil {
		t.Fatal("a member that fails to decode passed")
	}
	if name := fields[1].ID() + ".sz"; !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "hook: refused") {
		t.Fatalf("error %q does not name the failing member %s and its cause", err, name)
	}
}
