GO ?= go

.PHONY: build test race purego nofma bench bench-check bench-nop bench-gridftp gridftp-soak fuzz-smoke lint cover tier1 plan-smoke planner-determinism serve-smoke resume-smoke integrity-smoke doc-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The generic loops of internal/simd, which run on other architectures and
# on CPUs without AVX2, tested on this machine too: the purego tag leaves
# the AVX2 kernels out, so the packages that call them run the Go loops.
purego:
	$(GO) test -tags purego ./internal/simd ./internal/szx ./internal/sz ./internal/quant ./internal/metrics ./internal/core ./internal/datagen

# The codecs' reconstructions round every product before the sum — never
# fused — so a stream decodes to the same bits on every architecture. gc
# fuses x*y + z into one multiply-add on arm64 unless the product is
# converted explicitly, float64(x*y): this fails on any fused multiply-add
# in the arm64 code of the codec packages.
nofma:
	@out=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/sz ./internal/szx ./internal/simd ./internal/quant 2>&1 | \
		grep -E '[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[[:space:]]'); \
	if [ -n "$$out" ]; then echo "nofma: fused multiply-adds in the arm64 build:"; echo "$$out"; exit 1; fi; \
	echo "nofma: no fused multiply-add in the arm64 build of sz, szx, simd and quant"

# Benchmark smoke pass: compile and run every benchmark exactly once.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# The end-to-end benchmark lives in its own module (bench/), which
# `go build ./...` and `go test ./...` never reach: vet it and run its tests
# against this checkout, so an engine change that breaks the package the
# benchmark builds against fails here instead of in bench/run.sh.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# The compute-ceiling workload of the end-to-end campaign benchmark
# (BENCHMARK.json, bench/README.md) in driver mode: sz3 over the no-op
# transport, so raw_mbps moves with the codec kernels and little else. Run
# it on two checkouts, alternating, to compare them.
bench-nop:
	bash bench/run.sh --workload nop-sz3 --seed 42 --seconds 12 --trace 0

# The fast-link workload in driver mode: szx over loopback GridFTP, so
# raw_mbps moves with the szx kernels, packing, CRC framing and sockets.
# Compare two checkouts the same way as bench-nop.
bench-gridftp:
	bash bench/run.sh --workload gridftp-szx --seed 42 --seconds 12 --trace 0

# The GridFTP wire under the race detector, twenty times over: its cancel,
# black-hole, goroutine-leak and Close tests race the client's and the
# server's connection teardown, so one clean pass proves little.
gridftp-soak:
	$(GO) test -race -count=20 ./internal/gridftp/

# Short fuzz pass over the stream parsers, the daemon wire layer, the
# campaign journal, the archive integrity frame, the group archive and the
# GridFTP file frame: crafted streams (including unknown codec magic),
# arbitrary HTTP bodies, corrupted journal manifests, mutated OCIF frames,
# arbitrary block repairs, hostile group headers (member sizes that wrap
# offset+size) and file frames whose size claims outrun their bytes
# must error, never panic, and a bit-flipped or truncated archive repaired
# from its own block sums must come back exactly —
# plus the differential targets that hold the sz3 interp row kernels to the
# point-at-a-time oracle on random shapes, data and bounds, the szx
# block kernels to the bitstream-based oracle on arbitrary fields and
# streams, szx's relative-bound entry to the absolute one at
# sz.Config.AbsoluteBound's bound on arbitrary fields, the Huffman decoder and table builder to the pre-overhaul
# reference coder on arbitrary streams and frequency tables, the AVX2
# kernels of internal/simd to their generic loops bit for bit on arbitrary
# values (NaN payloads, ±Inf, ±0, subnormals) and alignments, the sz3 v2
# entropy coder round-tripping arbitrary code streams (wide, single-symbol,
# empty, all-escape) and refusing hostile coded sections without
# over-allocating, the tile-wise
# decode the destination verifies with to codec.Decompress on arbitrary
# szx, sz3 and OCSC bytes at any tile length, and the streaming
# reconstruction digest to the whole-field one under arbitrary tile
# splits. Each target fuzzes briefly from its checked-in seed corpus
# (internal/sz/testdata/fuzz, internal/serve/testdata/fuzz,
# internal/journal/testdata/fuzz, internal/integrity/testdata/fuzz) or its
# in-code seeds.
fuzz-smoke:
	$(GO) test ./internal/sz -run='^$$' -fuzz=FuzzHeaderParse -fuzztime=5s
	$(GO) test ./internal/sz -run='^$$' -fuzz=FuzzSplitChunked -fuzztime=5s
	$(GO) test ./internal/sz -run='^$$' -fuzz=FuzzDecompress -fuzztime=10s
	$(GO) test ./internal/sz -run='^$$' -fuzz=FuzzInterpKernelMatchesOracle -fuzztime=10s
	$(GO) test ./internal/szx -run='^$$' -fuzz=FuzzSZXMatchesOracle -fuzztime=10s
	$(GO) test ./internal/szx -run='^$$' -fuzz=FuzzSZXRelative -fuzztime=10s
	$(GO) test ./internal/simd -run='^$$' -fuzz=FuzzKernelsMatchGeneric -fuzztime=10s
	$(GO) test ./internal/huffman -run='^$$' -fuzz=FuzzDecodeVsReference -fuzztime=5s
	$(GO) test ./internal/huffman -run='^$$' -fuzz=FuzzBuildTableVsReference -fuzztime=5s
	$(GO) test ./internal/ans -run='^$$' -fuzz=FuzzEntropyRoundTrip -fuzztime=5s
	$(GO) test ./internal/ans -run='^$$' -fuzz=FuzzEntropyDecode -fuzztime=5s
	$(GO) test ./internal/sz -run='^$$' -fuzz=FuzzDecodeTilesMatchesDecompress -fuzztime=10s
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzReconDigestTileSplits -fuzztime=5s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzServeAPI -fuzztime=5s
	$(GO) test ./internal/journal -run='^$$' -fuzz=FuzzJournalManifest -fuzztime=5s
	$(GO) test ./internal/integrity -run='^$$' -fuzz=FuzzIntegrityFrame -fuzztime=5s
	$(GO) test ./internal/integrity -run='^$$' -fuzz=FuzzIntegrityRepair -fuzztime=5s
	$(GO) test ./internal/grouping -run='^$$' -fuzz=FuzzUnpack -fuzztime=5s
	$(GO) test ./internal/gridftp -run='^$$' -fuzz=FuzzGridFTPFrame -fuzztime=5s

# Static gate: gofmt, go vet, and the project's own invariant analyzers
# (tools/ocelotvet — alloc caps, pool discipline, context flow, bound
# resolution, span discipline; see ARCHITECTURE.md "Enforced invariants"). staticcheck and
# govulncheck run when installed; the container image does not bake them
# in, so they are advisory locally and real wherever they exist.
lint:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./tools/ocelotvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not installed, skipping"; fi

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# The repo's tier-1 verification command.
tier1:
	$(GO) build ./... && $(GO) test ./...

# Godoc coverage gate: fails when the facade, campaign engine, planner,
# codec registry, szx codec, simd kernels, serve daemon, campaign journal, or the
# ocelotvet analyzer suite export an undocumented symbol (tools/doccheck),
# or when README.md, docs/ARCHITECTURE.md or this Makefile name a Test…,
# Benchmark… or Fuzz… function that no _test.go file defines, or when a
# Fuzz… function is missing from fuzz-smoke or the CI weekly fuzz soak, or
# when README.md or docs/ARCHITECTURE.md backquote a .go path (a bare
# `verify.go` or a partial `core/verify.go`) that no tracked file's path
# ends in.
doc-check:
	$(GO) run ./tools/doccheck . ./internal/core ./internal/planner \
		./internal/codec ./internal/szx ./internal/simd ./internal/serve \
		./internal/journal ./internal/obs ./internal/integrity \
		./tools/ocelotvet ./tools/ocelotvet/alloccap \
		./tools/ocelotvet/poolsafe ./tools/ocelotvet/ctxflow \
		./tools/ocelotvet/boundres ./tools/ocelotvet/spanend \
		./tools/ocelotvet/internal/analysis \
		./tools/ocelotvet/internal/load
	@missing=$$(grep -ohE '\b(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*' README.md docs/ARCHITECTURE.md Makefile | \
		sort -u | while read -r name; do \
			grep -rqE "^func (\([^)]*\) )?$$name\(" --include='*_test.go' --exclude-dir=.bench_build . || echo "$$name"; \
		done); \
	if [ -n "$$missing" ]; then \
		echo "doc-check: named in the docs but defined in no _test.go file:"; echo "$$missing"; exit 1; fi
	@missing=$$(grep -rHoE '^func Fuzz[A-Za-z0-9_]*' --include='*_test.go' --exclude-dir=.bench_build . | \
		while IFS=: read -r file fn; do \
			name=$${fn#func }; dir=$$(dirname "$$file"); \
			for f in Makefile .github/workflows/ci.yml; do \
				grep -qE "test $$dir -run=[^ ]* -fuzz=$$name -fuzztime" $$f || echo "$$name ($$dir): not run by $$f"; \
			done; \
		done); \
	if [ -n "$$missing" ]; then \
		echo "doc-check: fuzz targets missing from make fuzz-smoke or the CI fuzz soak:"; echo "$$missing"; exit 1; fi
	@tracked=$$(git ls-files '*.go' | sed 's|^|/|'); \
	missing=$$(grep -ohE '`[A-Za-z0-9_./-]+\.go`' README.md docs/ARCHITECTURE.md | tr -d '`' | sed 's|^\./||' | \
		sort -u | while read -r path; do \
			[ "$$path" = "_test.go" ] && continue; \
			printf '%s\n' "$$tracked" | awk -v p="/$$path" \
				'substr($$0, length($$0) - length(p) + 1) == p { found = 1 } END { exit !found }' || echo "$$path"; \
		done); \
	if [ -n "$$missing" ]; then \
		echo "doc-check: README.md or docs/ARCHITECTURE.md cites a .go file no tracked path ends in:"; echo "$$missing"; exit 1; fi

# Daemon round-trip smoke: start `ocelot serve`, submit a campaign over
# HTTP and watch it to completion, submit a second and cancel it, list
# both, then shut the daemon down.
serve-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'kill $$pid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/ocelot ./cmd/ocelot; \
	$$tmp/ocelot serve -addr 127.0.0.1:9177 -route 'Anvil->Bebop' -timescale 1e-2 \
		-tenants climate:2,physics:1 & pid=$$!; \
	sleep 1; \
	$$tmp/ocelot submit -server http://127.0.0.1:9177 -tenant climate \
		-fields 4 -shrink 40 -watch; \
	$$tmp/ocelot submit -server http://127.0.0.1:9177 -tenant physics \
		-fields 8 -shrink 24 -eb 1e-4 -engine barrier; \
	$$tmp/ocelot cancel -server http://127.0.0.1:9177 -id c-2; \
	$$tmp/ocelot campaigns -server http://127.0.0.1:9177

# Crash-resume smoke through the real CLI, for a fixed and an adaptive
# campaign: run the campaign uninterrupted, run it again journaled and kill
# it after one sent group, then resume with `-resume J` and no other flag
# (the journal stores the request). The resumed run must report the skip
# and reach the uninterrupted run's reconstruction digest. One stream over
# a paced link keeps each group on the link long enough for the kill to
# land with groups unsent.
resume-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/ocelot ./cmd/ocelot; \
	leg() { \
		name=$$1; shift; \
		$$tmp/ocelot campaign "$$@" -route 'Anvil->Bebop' -timescale 1 \
			-journal $$tmp/$$name-ref.ocjl > $$tmp/$$name-ref.out; \
		$$tmp/ocelot campaign "$$@" -route 'Anvil->Bebop' -timescale 1 \
			-journal $$tmp/$$name.ocjl -kill-after-groups 1 > $$tmp/$$name-kill.out; \
		grep -q 'campaign killed' $$tmp/$$name-kill.out; \
		$$tmp/ocelot campaign -resume $$tmp/$$name.ocjl | tee $$tmp/$$name.out; \
		grep -q 'resumed from' $$tmp/$$name.out; \
		want=$$(grep 'recon digest' $$tmp/$$name-ref.out); \
		got=$$(grep 'recon digest' $$tmp/$$name.out); \
		if [ -z "$$want" ] || [ "$$got" != "$$want" ]; then \
			echo "resume-smoke: $$name resumed to '$$got', uninterrupted '$$want'"; exit 1; fi; \
	}; \
	leg fixed -app CESM -fields 4 -shrink 40 -groups 4 -streams 1; \
	leg adaptive -adaptive -app CESM -fields 6 -shrink 40 -train-shrink 64 -min-psnr 70 -streams 1; \
	echo "resume-smoke: ok"

# Corruption-recovery smoke through the real CLI: run a campaign over a
# link that corrupts half its deliveries and check the integrity ledger
# reports detected corruptions and retransmits. Digest identity and
# only-corrupted-resent are asserted by the internal/core integrity tests
# (TestCampaignCorruptionRetransmitDigestIdentity); this target proves the
# flags wire through the shipped binary.
integrity-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/ocelot ./cmd/ocelot; \
	$$tmp/ocelot campaign -app CESM -fields 8 -shrink 40 -engine pipelined -groups 8 \
		-route 'Anvil->Bebop' -timescale -1 -seed 7 \
		-corrupt-prob 0.5 -retries 8 | tee $$tmp/integrity.out; \
	grep -q 'integrity: .* corrupted group(s) detected' $$tmp/integrity.out; \
	grep -q 'max relative error' $$tmp/integrity.out; \
	echo "integrity-smoke: ok"

# Planner smoke: train-on-sweep + plan + adaptive campaign on small
# synthetic fields, so the closed predict-then-transfer loop can't rot.
plan-smoke:
	$(GO) run ./cmd/ocelot plan -app CESM -fields 6 -shrink 40 -train-shrink 64 \
		-route 'Anvil->Bebop' -min-psnr 70
	$(GO) run ./cmd/ocelot campaign -adaptive -app CESM -fields 6 -shrink 40 \
		-train-shrink 64 -route 'Anvil->Bebop' -min-psnr 70 -timescale 1e-3
	$(GO) run ./cmd/ocelot-bench -shrink 32 -only Planner

# Planner determinism: a plan is a pure function of the deterministic
# ratio/PSNR trees plus one measured throughput per codec, so the adaptive
# campaign's byte win over the fixed baseline must hold on every run, even
# on one core where compression timings are noisiest (≈ 10 s).
planner-determinism:
	GOMAXPROCS=1 $(GO) test -count=50 -run '^TestPlanner$$' ./internal/experiments
