package bench

import (
	"fmt"
	"io"
	"reflect"
	"sync"
	"time"
)

// Progress receives experiment lifecycle events from BuildReport, in
// table and JSON mode alike. Implementations must be safe for use from
// the goroutine driving the run (events arrive sequentially, one
// experiment at a time); index is 1-based and total counts the selected
// experiments.
//
// BuildReport never lets a Progress implementation alter results: events
// carry copies of what already happened, and a nil Progress is the
// zero-overhead default.
type Progress interface {
	// ExperimentStarted fires just before experiment index of total begins.
	ExperimentStarted(name string, index, total int)
	// ExperimentFinished fires after it returns. rows is the number of
	// typed rows it produced (-1 when it failed); err is the
	// experiment's error, nil on success.
	ExperimentFinished(name string, index, total, rows int, wall time.Duration, err error)
}

// progressWriter renders events as single lines, one per event. It
// serialises writes so interleaved use from tests stays readable.
type progressWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewProgressWriter returns a Progress that prints one line per event
// to w, e.g.
//
//	mousebench: [3/15] table3 ...
//	mousebench: [3/15] table3 done: 4 rows in 1.2ms
//
// mousebench -progress points this at stderr so the live feed never
// perturbs stdout framing or report bytes.
func NewProgressWriter(w io.Writer) Progress {
	return &progressWriter{w: w}
}

func (p *progressWriter) ExperimentStarted(name string, index, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "mousebench: [%d/%d] %s ...\n", index, total, name)
}

func (p *progressWriter) ExperimentFinished(name string, index, total, rows int, wall time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		fmt.Fprintf(p.w, "mousebench: [%d/%d] %s failed after %s: %v\n", index, total, name, wall.Round(time.Microsecond), err)
		return
	}
	fmt.Fprintf(p.w, "mousebench: [%d/%d] %s done: %d rows in %s\n", index, total, name, rows, wall.Round(time.Microsecond))
}

// RowCount reports the number of rows in an experiment's typed row
// value: the length when it is a slice (of any element type), -1
// otherwise. Experiments return []Fig9Sweep, []TableIVRow, etc. as
// `any`, so this is the one place reflection is warranted.
func RowCount(rows any) int {
	if rows == nil {
		return -1
	}
	v := reflect.ValueOf(rows)
	if v.Kind() != reflect.Slice {
		return -1
	}
	return v.Len()
}
