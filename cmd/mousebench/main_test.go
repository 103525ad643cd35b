package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"mouse/internal/bench"
)

func TestRunSingleExperiments(t *testing.T) {
	// The fast experiments run end to end; the heavyweight sweeps are
	// covered by the bench package's own tests.
	cases := map[string]string{
		"table1":      "Table I",
		"table2":      "Table II",
		"table3":      "Table III",
		"table4":      "SONIC",
		"robustness":  "array-level limits",
		"parallelism": "cols",
		"crossover":   "crossover",
		"fft":         "CRAFFT",
	}
	for exp, want := range cases {
		var out bytes.Buffer
		if err := runExperiments(&out, exp, bench.Options{Workers: 1}, false, false, false); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("%s output missing %q", exp, want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := runExperiments(&out, "frobnicate", bench.Options{Workers: 1}, false, false, false); err == nil {
		t.Fatalf("unknown experiment accepted")
	}
	if err := runExperiments(&out, "frobnicate", bench.Options{Workers: 1}, true, false, false); err == nil {
		t.Fatalf("unknown experiment accepted in JSON mode")
	}
}

// TestOutputIsExactlyTheSelectedExperiment pins the tightened output
// framing: a single experiment produces its table and nothing else — no
// leading or trailing blank line — and "all" separates experiments by
// exactly one blank line.
func TestOutputIsExactlyTheSelectedExperiment(t *testing.T) {
	var single bytes.Buffer
	if err := runExperiments(&single, "table2", bench.Options{Workers: 1}, false, false, false); err != nil {
		t.Fatal(err)
	}
	out := single.String()
	if strings.HasPrefix(out, "\n") || strings.HasSuffix(out, "\n\n") {
		t.Errorf("table2 output has blank-line padding: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("table2 output does not end in a newline: %q", out)
	}

	// Stitching single-experiment outputs with one blank line between
	// them must reproduce a multi-experiment run exactly.
	var stitched bytes.Buffer
	for i, exp := range []string{"table1", "table2", "table3"} {
		if i > 0 {
			stitched.WriteString("\n")
		}
		if err := runExperiments(&stitched, exp, bench.Options{Workers: 1}, false, false, false); err != nil {
			t.Fatal(err)
		}
	}
	if strings.Contains(stitched.String(), "\n\n\n") {
		t.Errorf("experiments separated by more than one blank line")
	}
}

// TestDeterministicTables runs the full experiment suite serially and
// in parallel and requires both outputs to match testdata/tables.golden
// byte for byte: goroutine scheduling in the sweep engine must not leak
// into results, and no change may move a reproduced number or a table's
// layout unnoticed. A change that means to alter the tables regenerates
// the file with
//
//	go run ./cmd/mousebench -experiment all -parallel 1 > cmd/mousebench/testdata/tables.golden
func TestDeterministicTables(t *testing.T) {
	golden, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		var out bytes.Buffer
		if err := runExperiments(&out, "all", bench.Options{Workers: workers}, false, false, false); err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != string(golden) {
			t.Errorf("-parallel %d tables differ from testdata/tables.golden:\n%s", workers, firstDiff(got, string(golden)))
		}
	}
}

// firstDiff describes the first line where got and want disagree.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	return "(identical lines)"
}

// TestDeterministicJSONReports builds the full JSON report serially and
// in parallel and requires the normalized reports deep-equal, and their
// encodings byte-identical.
func TestDeterministicJSONReports(t *testing.T) {
	build := func(workers int) (*bench.Report, []byte) {
		rep, err := bench.BuildReport("all", bench.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rep.Normalize()
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return rep, buf.Bytes()
	}
	serialRep, serialJSON := build(1)
	parallelRep, parallelJSON := build(8)
	if !reflect.DeepEqual(serialRep, parallelRep) {
		t.Errorf("normalized reports differ between -parallel 1 and -parallel 8")
	}
	if !bytes.Equal(serialJSON, parallelJSON) {
		t.Errorf("JSON encodings differ between -parallel 1 and -parallel 8")
	}
}

// TestProgressLeavesStdoutIdentical pins the -progress contract: the
// live feed goes only to its own writer, stdout bytes are identical
// with progress on or off, and the feed reports real row counts, in
// both table and JSON mode.
func TestProgressLeavesStdoutIdentical(t *testing.T) {
	for _, asJSON := range []bool{false, true} {
		var plain, withProg, feed bytes.Buffer
		if err := runExperiments(&plain, "table2", bench.Options{Workers: 1}, asJSON, false, false); err != nil {
			t.Fatal(err)
		}
		o := bench.Options{Workers: 1, Progress: bench.NewProgressWriter(&feed)}
		if err := runExperiments(&withProg, "table2", o, asJSON, false, false); err != nil {
			t.Fatal(err)
		}
		if asJSON {
			// Report wall-clock stamps differ run to run; compare normalized.
			norm := func(b []byte) *bench.Report {
				var rep bench.Report
				if err := json.Unmarshal(b, &rep); err != nil {
					t.Fatal(err)
				}
				rep.Normalize()
				return &rep
			}
			if !reflect.DeepEqual(norm(plain.Bytes()), norm(withProg.Bytes())) {
				t.Errorf("json=%v: -progress changed the normalized report", asJSON)
			}
		} else if !bytes.Equal(plain.Bytes(), withProg.Bytes()) {
			t.Errorf("json=%v: -progress changed stdout bytes", asJSON)
		}
		got := feed.String()
		if !strings.Contains(got, "mousebench: [1/1] table2 ...") ||
			!strings.Contains(got, "mousebench: [1/1] table2 done: 4 rows") {
			t.Errorf("json=%v: progress feed missing lifecycle lines:\n%s", asJSON, got)
		}
	}
}

// TestReportCarriesRunMeta checks the optional meta section: stamped on
// every report mousebench -json writes — the -batch N and -fleet views
// included — and stripped by Normalize.
func TestReportCarriesRunMeta(t *testing.T) {
	for _, view := range []struct {
		experiment string
		lanes      int
		wallClock  bool
	}{
		{"table2", 0, false},
		{"batch", 2, true}, // mousebench -batch 2 -json
		{"fleet", 0, true}, // mousebench -fleet -json
	} {
		var out bytes.Buffer
		o := bench.Options{Workers: 1, Lanes: view.lanes}
		if err := runExperiments(&out, view.experiment, o, true, false, view.wallClock); err != nil {
			t.Fatal(err)
		}
		var rep bench.Report
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Meta == nil || rep.Meta.GoVersion == "" || rep.Meta.GOMAXPROCS < 1 {
			t.Fatalf("%s: meta not stamped: %+v", view.experiment, rep.Meta)
		}
		rep.Normalize()
		if rep.Meta != nil {
			t.Errorf("%s: Normalize left the meta section", view.experiment)
		}
	}
}

// TestJSONModeEmitsValidReport exercises the -json path end to end.
func TestJSONModeEmitsValidReport(t *testing.T) {
	var out bytes.Buffer
	if err := runExperiments(&out, "table3", bench.Options{Workers: 2}, true, false, false); err != nil {
		t.Fatal(err)
	}
	var rep bench.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.Schema != bench.Schema || rep.Tool != "mousebench" {
		t.Errorf("report header %q/%q", rep.Schema, rep.Tool)
	}
	if rep.Parallelism != 2 {
		t.Errorf("parallelism %d, want 2", rep.Parallelism)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].Name != "table3" {
		t.Fatalf("experiments %+v", rep.Experiments)
	}
	rows, ok := rep.Experiments[0].Rows.([]any)
	if !ok || len(rows) != 6 {
		t.Fatalf("table3 rows: %#v", rep.Experiments[0].Rows)
	}
}
