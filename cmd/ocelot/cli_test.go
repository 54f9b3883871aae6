package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ocelot/internal/serve"
)

var update = flag.Bool("update", false, "rewrite testdata/flags.golden from the current flag sets")

// runCLI runs the CLI in process with stdout and stderr captured.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = f, f
	runErr := run(args)
	os.Stdout, os.Stderr = stdout, stderr
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

var digestRE = regexp.MustCompile(`recon digest: ([0-9a-f]{16})`)

// reconDigest runs the CLI and returns the recon digest it printed.
func reconDigest(t *testing.T, args ...string) (digest, out string) {
	t.Helper()
	out, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("ocelot %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	m := digestRE.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("ocelot %s printed no recon digest:\n%s", strings.Join(args, " "), out)
	}
	return m[1], out
}

// TestRequestFlagsGolden pins the flag sets of the three commands that
// describe a campaign — every flag's name, default and usage, as -h prints
// them — so a flag cannot move, vanish or change its default unnoticed.
// Run with -update to accept a deliberate change.
func TestRequestFlagsGolden(t *testing.T) {
	var got strings.Builder
	for _, cmd := range []string{"campaign", "submit", "plan"} {
		out, err := runCLI(t, cmd, "-h")
		if !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%s -h: err %v, want flag.ErrHelp", cmd, err)
		}
		got.WriteString(out)
	}
	golden := filepath.Join("testdata", "flags.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag sets drifted from %s (rerun with -update if deliberate):\n%s", golden, got.String())
	}
}

// TestCampaignResumeNeedsNoFlags kills a journaled campaign with
// non-default request flags after one group, then resumes it with -resume
// and nothing else: the journal's stored request must rebuild the same
// campaign and reach the digest of an uninterrupted run. A request flag
// alongside -resume is refused rather than silently ignored.
func TestCampaignResumeNeedsNoFlags(t *testing.T) {
	dir := t.TempDir()
	request := []string{"-codec", "szx", "-eb", "1e-4", "-groups", "3", "-chunk-mb", "0.002",
		"-fields", "4", "-shrink", "64", "-streams", "1"}
	want, _ := reconDigest(t, append([]string{"campaign", "-journal", filepath.Join(dir, "ref.ocjl")}, request...)...)

	jpath := filepath.Join(dir, "run.ocjl")
	// One stream over a paced link: each group holds the link ≥ 20 ms, so
	// the kill lands with groups still unsent.
	out, err := runCLI(t, append([]string{"campaign", "-route", "Anvil->Bebop", "-timescale", "1",
		"-journal", jpath, "-kill-after-groups", "1"}, request...)...)
	if err != nil || !strings.Contains(out, "campaign killed") {
		t.Fatalf("kill drill: %v\n%s", err, out)
	}

	if _, err := runCLI(t, "campaign", "-resume", jpath, "-eb", "1e-3"); err == nil || !strings.Contains(err.Error(), "-eb") {
		t.Fatalf("-resume with -eb: err %v, want a refusal naming -eb", err)
	}

	got, out := reconDigest(t, "campaign", "-resume", jpath)
	if !regexp.MustCompile(`resumed from .*: skipped [012] already-acked`).MatchString(out) {
		t.Errorf("resume did not continue the killed run:\n%s", out)
	}
	if !strings.Contains(out, "pipelined campaign [szx]") {
		t.Errorf("resume did not rebuild the szx campaign from the journal:\n%s", out)
	}
	if got != want {
		t.Errorf("resumed digest %s, uninterrupted %s", got, want)
	}
}

// TestCampaignResumeRefusesJournalWithoutRequest resumes
// testdata/parent-cli.ocjl, a journal an earlier CLI wrote (`campaign
// -pipeline -fields 4 -shrink 64 -groups 4`, killed after one group) before
// journals stored their request. Nothing in it says what the campaign
// was, so the resume is refused, with or without the original flags, by
// an error that wraps serve.ErrNoRequest and names the journal.
func TestCampaignResumeRefusesJournalWithoutRequest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "parent-cli.ocjl"))
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(t.TempDir(), "run.ocjl")
	if err := os.WriteFile(jpath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"campaign", "-resume", jpath},
		{"campaign", "-resume", jpath, "-fields", "4", "-shrink", "64", "-groups", "4"},
	} {
		out, err := runCLI(t, args...)
		if !errors.Is(err, serve.ErrNoRequest) || !strings.Contains(err.Error(), jpath) {
			t.Errorf("ocelot %s: err %v, want serve.ErrNoRequest naming the journal\n%s", strings.Join(args, " "), err, out)
		}
	}
}

// The integrity ledger line names a repair of a few blocks in kB, not as
// "0.0 MB".
func TestByteSize(t *testing.T) {
	for n, want := range map[int64]string{0: "0.0 kB", 16502: "16.5 kB", 999_949: "999.9 kB", 1_000_000: "1.0 MB", 4_200_000: "4.2 MB"} {
		if got := byteSize(n); got != want {
			t.Errorf("byteSize(%d) = %q, want %q", n, got, want)
		}
	}
}
