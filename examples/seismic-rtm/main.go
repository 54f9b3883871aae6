// Seismic-RTM: parallel compression scaling on reverse-time-migration
// wavefield snapshots (the paper's Fig 9 scenario). Shows how worker count
// cuts real compression wall time, and the simulated node-scaling curve
// including the decompression I/O-contention cliff.
package main

import (
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"time"

	"ocelot"
	"ocelot/internal/sz"
)

func main() {
	// Generate a batch of RTM snapshots (expanding wavefronts).
	snaps := []string{"snap-0200", "snap-0594", "snap-1048", "snap-1400",
		"snap-1800", "snap-1982", "snap-2600", "snap-3200"}
	fields := make([]*ocelot.Field, 0, len(snaps))
	for _, s := range snaps {
		f, err := ocelot.GenerateField("RTM", s, 12, 1)
		if err != nil {
			log.Fatal(err)
		}
		fields = append(fields, f)
	}
	fmt.Printf("%d RTM snapshots, %v each\n", len(fields), fields[0].Dims)

	// Real parallel compression at increasing worker counts.
	maxWorkers := runtime.GOMAXPROCS(0)
	for workers := 1; workers <= maxWorkers; workers *= 2 {
		start := time.Now()
		if err := compressAll(fields, workers); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d workers: %.2fs\n", workers, time.Since(start).Seconds())
	}

	// Simulated node-scaling on Anvil (Fig 9 shape).
	anvil := ocelot.StandardMachines()["Anvil"]
	sizes := make([]int64, 3601)
	for i := range sizes {
		sizes[i] = 189e6
	}
	fmt.Println("\nsimulated 682GB RTM campaign on Anvil (128 cores/node):")
	fmt.Printf("  %5s %14s %16s\n", "nodes", "compress (s)", "decompress (s)")
	for _, n := range []int{1, 2, 4, 8, 16} {
		fmt.Printf("  %5d %14.1f %16.1f\n", n,
			anvil.CompressTime(sizes, n), anvil.DecompressTime(sizes, n))
	}
	fmt.Println("  (note the decompression slowdown beyond 4 nodes: PFS write contention)")
}

// compressAll compresses every field with at most `workers` running at
// once and returns any failures, joined.
func compressAll(fields []*ocelot.Field, workers int) error {
	slots := make(chan struct{}, workers)
	errs := make([]error, len(fields))
	var wg sync.WaitGroup
	for i, f := range fields {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			cfg := sz.DefaultConfig(1.0) // abs bound on ~±12k wavefield
			_, _, errs[i] = sz.Compress(f.Data, f.Dims, cfg)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
