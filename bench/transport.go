package main

import (
	"context"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"ocelot/internal/core"
	"ocelot/internal/grouping"
	"ocelot/internal/integrity"
	"ocelot/internal/obs"
	"ocelot/internal/wan"
)

// forward ships one archive through inner exactly as the campaign engine
// would have: SendDelivered when the transport reports delivered bytes,
// SendWeighted when it takes a fair-share weight and one was given, plain
// Send otherwise. Both benchmark-owned transports go through it, so putting
// one between the engine and the real transport changes nothing the verify
// stage sees.
func forward(ctx context.Context, inner core.Transport, name string, data []byte, weight float64) ([]byte, float64, error) {
	if dt, ok := inner.(core.DeliveredTransport); ok {
		return dt.SendDelivered(ctx, name, data, weight)
	}
	if wt, ok := inner.(core.WeightedTransport); ok && weight > 0 {
		sec, err := wt.SendWeighted(ctx, name, data, weight)
		return data, sec, err
	}
	sec, err := inner.Send(ctx, name, data)
	return data, sec, err
}

// streamHint forwards the wrapped transport's link concurrency (0 = none,
// which the engine treats like a transport without a hint).
func streamHint(inner core.Transport) int {
	if h, ok := inner.(interface{ StreamHint() int }); ok {
		return h.StreamHint()
	}
	return 0
}

// sendInterval is one send attempt as the decorator saw it.
type sendInterval struct {
	start, end time.Time
}

// tracedTransport is the traced pass's decorator: it times every send the
// engine makes, counts bytes, failures and the deepest overlap, keeps the
// last archive shipped under each name for the layer pass, and records one
// span per attempt. It forwards SendDelivered, SendWeighted and StreamHint,
// so corruption on the wrapped link still reaches the verify stage.
type tracedTransport struct {
	inner    core.Transport
	rec      *recorder
	campaign string
	parent   int

	mu          sync.Mutex
	count       int   // attempts, failed ones included
	failed      int   // attempts that returned an error
	bytes       int64 // bytes of successful attempts
	busy        float64
	inflight    int
	maxInflight int
	intervals   []sendInterval
	archives    map[string][]byte // last successfully offered payload per name
}

func newTracedTransport(inner core.Transport, rec *recorder, campaign string, parent int) *tracedTransport {
	return &tracedTransport{inner: inner, rec: rec, campaign: campaign, parent: parent,
		archives: make(map[string][]byte)}
}

// Name implements core.Transport.
func (t *tracedTransport) Name() string { return t.inner.Name() }

// StreamHint forwards the wrapped link's concurrency.
func (t *tracedTransport) StreamHint() int { return streamHint(t.inner) }

// Send implements core.Transport.
func (t *tracedTransport) Send(ctx context.Context, name string, data []byte) (float64, error) {
	_, sec, err := t.SendDelivered(ctx, name, data, 0)
	return sec, err
}

// SendWeighted implements core.WeightedTransport.
func (t *tracedTransport) SendWeighted(ctx context.Context, name string, data []byte, weight float64) (float64, error) {
	_, sec, err := t.SendDelivered(ctx, name, data, weight)
	return sec, err
}

// SendDelivered implements core.DeliveredTransport.
func (t *tracedTransport) SendDelivered(ctx context.Context, name string, data []byte, weight float64) ([]byte, float64, error) {
	t.mu.Lock()
	t.inflight++
	if t.inflight > t.maxInflight {
		t.maxInflight = t.inflight
	}
	t.mu.Unlock()
	start := time.Now()
	delivered, sec, err := forward(ctx, t.inner, name, data, weight)
	end := time.Now()
	t.rec.add("send", t.campaign, t.parent, start, end)
	t.mu.Lock()
	t.inflight--
	t.count++
	t.busy += end.Sub(start).Seconds()
	t.intervals = append(t.intervals, sendInterval{start, end})
	if err != nil {
		t.failed++
	} else {
		t.bytes += int64(len(data))
		t.archives[name] = data
	}
	t.mu.Unlock()
	return delivered, sec, err
}

// busyUnion is the wall time during which at least one send was in flight.
func (t *tracedTransport) busyUnion() float64 {
	t.mu.Lock()
	iv := append([]sendInterval(nil), t.intervals...)
	t.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i].start.Before(iv[j].start) })
	var total float64
	var curStart, curEnd time.Time
	for i, v := range iv {
		if i == 0 || v.start.After(curEnd) {
			total += curEnd.Sub(curStart).Seconds()
			curStart, curEnd = v.start, v.end
		} else if v.end.After(curEnd) {
			curEnd = v.end
		}
	}
	return total + curEnd.Sub(curStart).Seconds()
}

// faultLink injects the wan-faulty workload's fault schedule. It draws from
// the program's own wan.Injector, but from one injector per archive, keyed by
// the archive's first member name and a fixed seed, instead of one per link:
// a link-wide injector hands out its random sequence in send-arrival order,
// so under concurrent sends the number of corruptions differs run to run,
// and a benchmark metric would measure that luck. Keyed per archive, every
// rep of every run sees the same flaps and corruptions, and what varies is
// only how fast the code recovers from them. As in SimulatedWANTransport, a
// flap is drawn before the send and corruption after pacing completes.
type faultLink struct {
	inner  core.Transport
	faults wan.Faults
	reg    *obs.Registry

	mu        sync.Mutex
	injectors map[string]*wan.Injector
}

func newFaultLink(inner core.Transport, faults wan.Faults, reg *obs.Registry) *faultLink {
	return &faultLink{inner: inner, faults: faults, reg: reg, injectors: make(map[string]*wan.Injector)}
}

// archiveKey names an archive by its first packed member, which does not
// change with the seed or with the group id the engine happened to give it.
func archiveKey(name string, data []byte) string {
	payload, _, err := integrity.Verify(data)
	if err != nil {
		payload = data
	}
	if members, err := grouping.Unpack(payload); err == nil && len(members) > 0 {
		return members[0].Name
	}
	return name
}

func (f *faultLink) injector(key string) (*wan.Injector, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if inj, ok := f.injectors[key]; ok {
		return inj, nil
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(key)) // hash.Hash writes never fail
	faults := f.faults
	faults.Seed ^= int64(h.Sum64())
	inj, err := wan.NewInjector(&faults)
	if err != nil {
		return nil, err
	}
	inj.SetMetrics(f.reg)
	f.injectors[key] = inj
	return inj, nil
}

// Name implements core.Transport.
func (f *faultLink) Name() string { return f.inner.Name() + "+faults" }

// StreamHint forwards the wrapped link's concurrency.
func (f *faultLink) StreamHint() int { return streamHint(f.inner) }

// Send implements core.Transport.
func (f *faultLink) Send(ctx context.Context, name string, data []byte) (float64, error) {
	_, sec, err := f.SendDelivered(ctx, name, data, 0)
	return sec, err
}

// SendWeighted implements core.WeightedTransport.
func (f *faultLink) SendWeighted(ctx context.Context, name string, data []byte, weight float64) (float64, error) {
	_, sec, err := f.SendDelivered(ctx, name, data, weight)
	return sec, err
}

// SendDelivered implements core.DeliveredTransport.
func (f *faultLink) SendDelivered(ctx context.Context, name string, data []byte, weight float64) ([]byte, float64, error) {
	inj, err := f.injector(archiveKey(name, data))
	if err != nil {
		return nil, 0, err
	}
	if err := inj.SendError(0); err != nil {
		return nil, 0, err
	}
	delivered, sec, err := forward(ctx, f.inner, name, data, weight)
	if err != nil {
		return nil, 0, err
	}
	return inj.CorruptPayload(delivered), sec, nil
}
