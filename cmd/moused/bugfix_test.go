package main

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"mouse/internal/bench"
)

// stubReport swaps the buildReport seam for the test and restores it on
// cleanup. Tests in this package run sequentially, so the package var
// is safe to swap.
func stubReport(t *testing.T, fn func(string, bench.Options) (*bench.Report, error)) {
	t.Helper()
	old := buildReport
	buildReport = fn
	t.Cleanup(func() { buildReport = old })
}

// TestRunsSumsMultiExperimentRows: a multi-experiment job ("all") must
// report the row total across every experiment in /runs, not just the
// first experiment's count — and an empty report must not panic.
func TestRunsSumsMultiExperimentRows(t *testing.T) {
	s := newTestServer(t, 1, 1)
	stubReport(t, func(string, bench.Options) (*bench.Report, error) {
		return &bench.Report{Experiments: []bench.ExperimentReport{
			{Name: "a", Rows: []int{1, 2, 3}},
			{Name: "b", Rows: []int{4, 5}},
		}}, nil
	})
	s.runOne("all", 0, 0)
	s.mu.Lock()
	rows := s.runs[0].Rows
	s.mu.Unlock()
	if rows != 5 {
		t.Errorf("multi-experiment run recorded %d rows, want 5 (3+2)", rows)
	}

	stubReport(t, func(string, bench.Options) (*bench.Report, error) {
		return &bench.Report{}, nil
	})
	s.runOne("all", 0, 1) // must not panic on rep.Experiments[0]
	s.mu.Lock()
	st := s.runs[0]
	s.mu.Unlock()
	if st.State != "done" || st.Rows != 0 {
		t.Errorf("empty report run: %+v, want done with 0 rows", st)
	}
}

// TestActiveGaugeSurvivesPanic: a panicking experiment must not leave
// moused_runs_active inflated forever.
func TestActiveGaugeSurvivesPanic(t *testing.T) {
	s := newTestServer(t, 1, 1)
	stubReport(t, func(string, bench.Options) (*bench.Report, error) {
		panic("experiment exploded")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("stub did not panic")
			}
		}()
		s.runOne("table2", 0, 0)
	}()
	if got := s.active.Value(); got != 0 {
		t.Errorf("moused_runs_active = %g after a panicking run, want 0", got)
	}
}

// failingListener's Accept always returns a permanent error, the shape
// of a listener yanked out from under a running server.
type failingListener struct{}

func (failingListener) Accept() (net.Conn, error) { return nil, errors.New("listener exploded") }
func (failingListener) Close() error              { return nil }
func (failingListener) Addr() net.Addr            { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// TestServeHTTPReturnsOnListenerError: a real Serve error (not
// ErrServerClosed) must cancel the job stream before waiting on it —
// with -repeat 0 the old code blocked on wg.Wait forever and moused
// never exited.
func TestServeHTTPReturnsOnListenerError(t *testing.T) {
	s := newTestServer(t, 1, 1)
	stubReport(t, func(string, bench.Options) (*bench.Report, error) {
		return &bench.Report{}, nil
	})
	errCh := make(chan error, 1)
	go func() {
		// repeat 0: the stream runs until its context is cancelled.
		errCh <- serveHTTP(context.Background(), failingListener{}, s, []string{"table2"}, 0, 0)
	}()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "listener exploded") {
			t.Errorf("serveHTTP returned %v, want the listener error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serveHTTP hung after listener failure with -repeat 0")
	}
}

// TestParseExperimentsNormalizes: "all" absorbs named experiments (they
// would run twice per pass otherwise), repeats dedupe, and a typo next
// to "all" still errors.
func TestParseExperimentsNormalizes(t *testing.T) {
	got, err := parseExperiments("all,table2,checkpoint")
	if err != nil || len(got) != 1 || got[0] != "all" {
		t.Errorf(`parseExperiments("all,table2,checkpoint") = %v, %v; want [all]`, got, err)
	}
	got, err = parseExperiments("table2,fft,table2,table2")
	if err != nil || len(got) != 2 || got[0] != "table2" || got[1] != "fft" {
		t.Errorf(`parseExperiments("table2,fft,table2,table2") = %v, %v; want [table2 fft]`, got, err)
	}
	if _, err := parseExperiments("all,frobnicate"); err == nil {
		t.Error(`parseExperiments("all,frobnicate") accepted an unknown name`)
	}
}
