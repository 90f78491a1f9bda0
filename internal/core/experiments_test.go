package core

import (
	"strings"
	"testing"

	"repro/internal/deadness"
	"repro/internal/trace"
)

func TestSafeDivReportsZeroDenominator(t *testing.T) {
	if v, err := safeDiv(3, 4); err != nil || v != 0.75 {
		t.Errorf("safeDiv(3,4) = %v, %v", v, err)
	}
	if v, err := safeDiv(0, 5); err != nil || v != 0 {
		t.Errorf("safeDiv(0,5) = %v, %v", v, err)
	}
	_, err := safeDiv(7, 0)
	if err == nil {
		t.Fatal("safeDiv(7,0) silently returned a value")
	}
	if !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestReductionReportsZeroBaseline(t *testing.T) {
	if v, err := reduction(100, 75); err != nil || v != 0.25 {
		t.Errorf("reduction(100,75) = %v, %v", v, err)
	}
	if v, err := reduction(50, 50); err != nil || v != 0 {
		t.Errorf("reduction(50,50) = %v, %v", v, err)
	}
	_, err := reduction(0, 10)
	if err == nil {
		t.Fatal("reduction(0,10) silently returned a value")
	}
	if !strings.Contains(err.Error(), "zero baseline") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// refWindowedDeadFraction is the pre-optimization implementation (one
// clone per window); the fast path must match it exactly.
func refWindowedDeadFraction(t *trace.Trace, window int) (float64, error) {
	n := t.Len()
	dead, total := 0, 0
	for start := 0; start < n; start += window {
		end := min(start+window, n)
		sub := trace.FromRecords(t.Records()[start:end])
		a, err := deadness.LinkAndAnalyze(sub)
		if err != nil {
			return 0, err
		}
		s := a.Summarize(sub, nil)
		dead += s.Dead
		total += s.Total
	}
	if total == 0 {
		return 0, nil
	}
	return float64(dead) / float64(total), nil
}

// TestWindowedDeadFractionRegression pins E18's windowed measurement to
// the reference implementation and checks the shared trace is left
// untouched (links intact) for concurrently running experiments.
func TestWindowedDeadFractionRegression(t *testing.T) {
	w := NewWorkspace(60_000)
	res, err := w.ProfileOf("gzip")
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace

	// Snapshot a spread of records to prove the shared trace's producer
	// links survive the windowed analysis.
	idxs := []int{0, tr.Len() / 3, tr.Len() / 2, tr.Len() - 1}
	before := make([]trace.Record, len(idxs))
	for i, k := range idxs {
		before[i] = tr.At(k)
	}

	for _, win := range []int{1_000, 7_777, 10_000, tr.Len(), 2 * tr.Len()} {
		got, err := windowedDeadFraction(tr, win)
		if err != nil {
			t.Fatalf("window %d: %v", win, err)
		}
		want, err := refWindowedDeadFraction(tr, win)
		if err != nil {
			t.Fatalf("window %d (reference): %v", win, err)
		}
		if got != want {
			t.Errorf("window %d: dead fraction %v, reference %v", win, got, want)
		}
	}

	for i, k := range idxs {
		if tr.At(k) != before[i] {
			t.Errorf("shared trace mutated at record %d", k)
		}
	}
	if !tr.Linked {
		t.Error("shared trace lost its linked state")
	}

	if _, err := windowedDeadFraction(tr, 0); err == nil {
		t.Error("zero window size accepted")
	}
}
