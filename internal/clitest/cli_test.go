// Package clitest builds the repository's command binaries and exercises
// them end to end: generate → study → train → predict → repro, and the
// daemons, started and probed through Daemon (daemon_test.go).
package clitest

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cordial/internal/faultsim"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// TestMain removes the directory buildAll built the commands into.
func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// buildAll compiles every command into a temp dir once per test binary;
// under -short it skips the test instead.
func buildAll(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds binaries")
	}
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "cordial-clitest-"); buildErr != nil {
			return
		}
		buildErr = BuildBinaries(binDir, "cordial-gen", "cordial-train", "cordial-predict",
			"cordial-repro", "cordial-study", "cordial-serve", "cordial-control", "cordial-router")
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	bin := buildAll(t)
	work := t.TempDir()
	logPath := filepath.Join(work, "fleet.mcelog")
	truthPath := filepath.Join(work, "truth.json")
	modelPath := filepath.Join(work, "models.json")

	// Generate a small fleet.
	out := run(t, bin, "cordial-gen", "-seed", "5", "-uer-banks", "80",
		"-benign-banks", "150", "-log", logPath, "-truth", truthPath)
	if !strings.Contains(out, "80 faulty banks") {
		t.Fatalf("gen output: %s", out)
	}
	if _, err := os.Stat(logPath); err != nil {
		t.Fatal(err)
	}

	// Study the log.
	out = run(t, bin, "cordial-study", "-log", logPath)
	for _, want := range []string{"sudden-UER ratios", "Figure 4", "noisiest banks"} {
		if !strings.Contains(out, want) {
			t.Fatalf("study output missing %q:\n%s", want, out)
		}
	}

	// Train on the ground truth.
	out = run(t, bin, "cordial-train", "-truth", truthPath, "-model", "rf",
		"-trees", "20", "-out", modelPath)
	if !strings.Contains(out, "trained Random Forest on 80 banks") {
		t.Fatalf("train output: %s", out)
	}

	// Predict over the log with the trained models.
	out = run(t, bin, "cordial-predict", "-models", modelPath, "-log", logPath)
	if !strings.Contains(out, "classified 80 of") {
		t.Fatalf("predict output: %s", out)
	}
	if !strings.Contains(out, "action=row-spare") || !strings.Contains(out, "action=bank-spare") {
		t.Fatalf("predict output missing actions:\n%s", out)
	}
}

func TestCLIReproQuickSingleExperiments(t *testing.T) {
	bin := buildAll(t)
	out := run(t, bin, "cordial-repro", "-scale", "quick", "-exp", "fig4")
	if !strings.Contains(out, "peak threshold: 128 rows") {
		t.Fatalf("fig4 output: %s", out)
	}
	out = run(t, bin, "cordial-repro", "-scale", "quick", "-exp", "table1")
	if !strings.Contains(out, "Predictable Ratio") {
		t.Fatalf("table1 output: %s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	bin := buildAll(t)
	// Unknown experiment fails with a helpful message.
	cmd := exec.Command(filepath.Join(bin, "cordial-repro"), "-exp", "bogus", "-scale", "quick")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("bogus experiment succeeded: %s", out)
	}
	if !strings.Contains(string(out), "unknown experiment") {
		t.Fatalf("error output: %s", out)
	}
	// Missing log file fails cleanly.
	cmd = exec.Command(filepath.Join(bin, "cordial-study"), "-log", "/nonexistent.mcelog")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("missing log accepted: %s", out)
	}
	// The retired log formats are refused with a pointer to their successor.
	cmd = exec.Command(filepath.Join(bin, "cordial-gen"), "-format", "binary",
		"-log", filepath.Join(t.TempDir(), "fleet.mcelog"), "-truth", "")
	out, err = cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), "wire") {
		t.Fatalf("cordial-gen -format binary: err %v, output %s; want a refusal naming wire", err, out)
	}
}

// TestCLIStreamFormatRoundTrip: the readers take no -format — whichever
// format cordial-gen was asked for, the study works it out from the file.
// (TestCLIPipeline covers the default, wire; this is the other one.)
func TestCLIStreamFormatRoundTrip(t *testing.T) {
	bin := buildAll(t)
	work := t.TempDir()
	logPath := filepath.Join(work, "fleet.jsonl")
	out := run(t, bin, "cordial-gen", "-seed", "6", "-uer-banks", "30",
		"-benign-banks", "50", "-log", logPath, "-format", "jsonl", "-truth", "")
	if !strings.Contains(out, "30 faulty banks") {
		t.Fatalf("gen output: %s", out)
	}
	out = run(t, bin, "cordial-study", "-log", logPath)
	if !strings.Contains(out, "sudden-UER ratios") {
		t.Fatalf("study output: %s", out)
	}
}

// TestCLITruthGolden: the ground truth cordial-gen writes is byte-identical
// to files written before hbm.BankAddress was a type of its own (a bank
// still encodes as the Address object with a zero row and column), under an
// HBM and a DIMM profile; it decodes back to the same bytes, and
// cordial-train reads it with the error-bit features on. Under the DIMM
// profile the models then classify the log, and a two-profile transfer
// study completes.
func TestCLITruthGolden(t *testing.T) {
	bin := buildAll(t)
	for _, topo := range []string{"hbm2e", "ddr5-dimm"} {
		t.Run(topo, func(t *testing.T) {
			work := t.TempDir()
			truthPath := filepath.Join(work, "truth.json")
			run(t, bin, "cordial-gen", "-topology", topo, "-seed", "9", "-uer-banks", "30",
				"-benign-banks", "20", "-log", filepath.Join(work, "fleet.mcelog"), "-truth", truthPath)
			got, err := os.ReadFile(truthPath)
			if err != nil {
				t.Fatal(err)
			}
			want := readGzip(t, filepath.Join("testdata", "truth_seed9_"+topo+".json.gz"))
			if !bytes.Equal(got, want) {
				t.Fatalf("truth file differs from the golden: %d B, want %d B", len(got), len(want))
			}
			var faults []*faultsim.BankFault
			if err := json.Unmarshal(want, &faults); err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := json.NewEncoder(&again).Encode(faults); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), want) {
				t.Fatal("the golden does not re-encode to its own bytes")
			}
			modelPath := filepath.Join(work, "models.json")
			out := run(t, bin, "cordial-train", "-topology", topo, "-errbits", "-truth", truthPath,
				"-trees", "5", "-out", modelPath)
			if !strings.Contains(out, "on 30 banks") {
				t.Fatalf("train output: %s", out)
			}
			if topo != "ddr5-dimm" {
				return
			}
			out = run(t, bin, "cordial-predict", "-topology", topo, "-models", modelPath,
				"-log", filepath.Join(work, "fleet.mcelog"))
			if !strings.Contains("\n"+out, "\nclassified ") {
				t.Fatalf("predict output: %s", out)
			}
			out = run(t, bin, "cordial-study", "-transfer", "hbm2e,ddr5-dimm", "-transfer-banks", "40",
				"-transfer-trees", "8")
			if !strings.Contains(out, "baseline") {
				t.Fatalf("transfer study output: %s", out)
			}
		})
	}
}

func readGzip(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
