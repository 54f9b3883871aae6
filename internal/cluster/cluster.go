// Package cluster models the supercomputers of the paper's testbed
// (Table III): node/core inventories, calibrated per-core compression and
// decompression throughputs, a parallel-filesystem contention model that
// reproduces Fig 9's decompression slowdown, and a batch scheduler with
// node-waiting behaviour on the shared virtual clock.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ocelot/internal/sim"
)

// Machine describes one HPC system partition.
type Machine struct {
	// Name, e.g. "Anvil".
	Name string
	// Partition, e.g. "wholenode".
	Partition string
	// Nodes available in the partition.
	Nodes int
	// CoresPerNode per compute node.
	CoresPerNode int
	// CompressMBpsPerCore is the calibrated single-core SZ compression
	// throughput in MB of raw data per second.
	CompressMBpsPerCore float64
	// DecompressMBpsPerCore is the calibrated single-core decompression
	// throughput.
	DecompressMBpsPerCore float64
	// PFSWriteMBps is the parallel filesystem's aggregate write bandwidth
	// with one writer node.
	PFSWriteMBps float64
	// IOKneeNodes is the writer-node count at which aggregate PFS write
	// bandwidth peaks; beyond it, contention degrades throughput (Fig 9).
	IOKneeNodes float64
}

// Validate checks machine parameters.
func (m *Machine) Validate() error {
	if m.Nodes <= 0 || m.CoresPerNode <= 0 {
		return fmt.Errorf("cluster: %s: invalid node/core counts", m.Name)
	}
	if m.CompressMBpsPerCore <= 0 || m.DecompressMBpsPerCore <= 0 {
		return fmt.Errorf("cluster: %s: invalid throughput", m.Name)
	}
	if m.PFSWriteMBps <= 0 || m.IOKneeNodes <= 0 {
		return fmt.Errorf("cluster: %s: invalid PFS model", m.Name)
	}
	return nil
}

// pfsWriteBandwidth returns the aggregate write bandwidth with n writer
// nodes: rises roughly linearly to the knee, then collapses under
// contention — the cubic tail matches the paper's observation that CESM
// decompression took 68.7s on 4 Cori nodes but over 5 minutes on 16.
func (m *Machine) pfsWriteBandwidth(nodes int) float64 {
	n := float64(nodes)
	return m.PFSWriteMBps * n / (1 + math.Pow(n/m.IOKneeNodes, 3))
}

// CompressTime models the wall time to compress a set of files (sizes in
// raw bytes) with `nodes` nodes. Each core handles whole files (the paper's
// file-parallel scheme); parallelism saturates at the file count.
func (m *Machine) CompressTime(sizes []int64, nodes int) float64 {
	return m.parallelTime(sizes, nodes, m.CompressMBpsPerCore, false)
}

// DecompressTime models the wall time to decompress files and write the raw
// bytes back to the parallel filesystem; writes contend beyond the knee.
func (m *Machine) DecompressTime(sizes []int64, nodes int) float64 {
	return m.parallelTime(sizes, nodes, m.DecompressMBpsPerCore, true)
}

func (m *Machine) parallelTime(sizes []int64, nodes int, mbpsPerCore float64, withIO bool) float64 {
	if len(sizes) == 0 || nodes <= 0 {
		return 0
	}
	if nodes > m.Nodes {
		nodes = m.Nodes
	}
	cores := nodes * m.CoresPerNode
	if cores > len(sizes) {
		cores = len(sizes)
	}
	costs := make([]float64, len(sizes))
	var total float64
	for i, s := range sizes {
		costs[i] = float64(s) / 1e6 / mbpsPerCore
		total += float64(s) / 1e6
	}
	cpuTime := sim.Makespan(costs, cores)
	if !withIO {
		return cpuTime
	}
	ioTime := total / m.pfsWriteBandwidth(nodes)
	if ioTime > cpuTime {
		return ioTime
	}
	return cpuTime
}

// Standard returns the calibrated testbed machines (paper Table III).
// Throughputs are calibrated so Table VIII's CPTime/DPTime columns come out
// in the right regime.
func Standard() map[string]*Machine {
	return map[string]*Machine{
		"Anvil": {
			Name: "Anvil", Partition: "wholenode",
			Nodes: 750, CoresPerNode: 128,
			CompressMBpsPerCore: 25, DecompressMBpsPerCore: 80,
			PFSWriteMBps: 12000, IOKneeNodes: 4,
		},
		"Bebop": {
			Name: "Bebop", Partition: "bdwall",
			Nodes: 664, CoresPerNode: 36,
			CompressMBpsPerCore: 22, DecompressMBpsPerCore: 55,
			PFSWriteMBps: 6000, IOKneeNodes: 8,
		},
		"BebopKNL": {
			Name: "BebopKNL", Partition: "knlall",
			Nodes: 348, CoresPerNode: 64,
			CompressMBpsPerCore: 4, DecompressMBpsPerCore: 9,
			PFSWriteMBps: 6000, IOKneeNodes: 8,
		},
		"Cori": {
			Name: "Cori", Partition: "haswell",
			Nodes: 2388, CoresPerNode: 32,
			CompressMBpsPerCore: 24, DecompressMBpsPerCore: 90,
			PFSWriteMBps: 14000, IOKneeNodes: 8,
		},
	}
}

// Scheduler is a FIFO batch scheduler over a machine's nodes on the shared
// virtual clock. An optional ExtraWait models queue delays caused by other
// users' jobs (the paper: "sometimes it took a few minutes or even hours").
type Scheduler struct {
	clock *sim.Clock
	m     *Machine
	free  int
	queue []*request
	// extraWait, when non-nil, returns additional seconds a request waits
	// even when nodes are free.
	extraWait func() float64
}

type request struct {
	nodes   int
	grant   func()
	delayed bool // extra wait already served
}

// ErrTooManyNodes is returned when a request exceeds the machine size.
var ErrTooManyNodes = errors.New("cluster: request exceeds machine nodes")

// NewScheduler creates a scheduler with all nodes free.
func NewScheduler(clock *sim.Clock, m *Machine) *Scheduler {
	return &Scheduler{clock: clock, m: m, free: m.Nodes}
}

// SetWaitModel installs a synthetic extra-wait generator. Deterministic for
// a given seed: meanSec ≤ 0 disables extra waits; spikeProb adds occasional
// long waits of spikeSec.
func (s *Scheduler) SetWaitModel(seed int64, meanSec, spikeProb, spikeSec float64) {
	if meanSec <= 0 && spikeProb <= 0 {
		s.extraWait = nil
		return
	}
	rng := rand.New(rand.NewSource(seed))
	s.extraWait = func() float64 {
		w := 0.0
		if meanSec > 0 {
			w = rng.ExpFloat64() * meanSec
		}
		if spikeProb > 0 && rng.Float64() < spikeProb {
			w += spikeSec
		}
		return w
	}
}

// Request asks for nodes; grant runs (on the virtual clock) once they are
// allocated. FIFO order is preserved.
func (s *Scheduler) Request(nodes int, grant func()) error {
	if nodes <= 0 {
		return errors.New("cluster: non-positive node request")
	}
	if nodes > s.m.Nodes {
		return fmt.Errorf("%w: %d > %d", ErrTooManyNodes, nodes, s.m.Nodes)
	}
	r := &request{nodes: nodes, grant: grant}
	if s.extraWait != nil {
		d := s.extraWait()
		s.clock.After(d, func() {
			r.delayed = true
			s.queue = append(s.queue, r)
			s.pump()
		})
		return nil
	}
	r.delayed = true
	s.queue = append(s.queue, r)
	s.pump()
	return nil
}

// Release returns nodes to the pool.
func (s *Scheduler) Release(nodes int) {
	s.free += nodes
	if s.free > s.m.Nodes {
		s.free = s.m.Nodes
	}
	s.pump()
}

// FreeNodes reports currently free nodes.
func (s *Scheduler) FreeNodes() int { return s.free }

// QueueLength reports pending requests.
func (s *Scheduler) QueueLength() int { return len(s.queue) }

// pump grants requests in FIFO order while nodes suffice.
func (s *Scheduler) pump() {
	for len(s.queue) > 0 {
		head := s.queue[0]
		if head.nodes > s.free {
			return
		}
		s.free -= head.nodes
		s.queue = s.queue[1:]
		grant := head.grant
		s.clock.After(0, grant)
	}
}
