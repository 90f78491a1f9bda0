package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"repro/internal/artifact"
	"repro/internal/stats"
)

// Experiment persistence: a completed experiment (KindExperiment) is
// stored as strict, canonical JSON of what Render reads — the ID, title,
// claim, table cells, figure and metrics. Wall is not stored, so a loaded
// experiment reports 0, and neither is Err: a failed build is never
// stored. The key carries ModelFingerprint, so an entry written by
// another model or driver code is never read under this one's keys.
//
// Decode accepts exactly the bytes Encode writes for the value it
// returns: unknown fields, trailing data and any other spelling of the
// same value (whitespace, escapes, number forms, key order) are
// rejected. encoding/json writes map keys sorted, so a rebuild writes
// the same bytes. Decode also rejects what Render could not draw
// safely: a row whose cell count differs from the header count, a table
// that renders past maxTableRender bytes, a figure size outside
// [0, maxChartSide], and a figure point that is not finite or lies
// beyond ±maxChartCoord, where the chart's scaling would leave the grid.
const (
	maxTableRender = 1 << 20
	maxChartSide   = 256
	maxChartCoord  = 1e15
)

// experimentRecord is the persisted form of an Experiment.
type experimentRecord struct {
	ID      string
	Title   string
	Claim   string
	Table   *tableRecord       `json:",omitempty"`
	Figure  *stats.Chart       `json:",omitempty"`
	Metrics map[string]float64 `json:",omitempty"`
}

// tableRecord holds a table's cells.
type tableRecord struct {
	Headers []string
	Rows    [][]string
}

var experimentJSON = artifact.JSONCodec[experimentRecord]{}

// experimentCodec persists KindExperiment artifacts (*Experiment).
type experimentCodec struct{}

func (experimentCodec) Encode(v any) ([]byte, error) {
	e, ok := v.(*Experiment)
	if !ok {
		return nil, fmt.Errorf("core: experiment codec holds *Experiment, got %T", v)
	}
	r := experimentRecord{ID: e.ID, Title: e.Title, Claim: e.Claim, Figure: e.Figure, Metrics: e.Metrics}
	if e.Table != nil {
		h, rows := e.Table.Cells()
		r.Table = &tableRecord{h, rows}
	}
	if _, err := r.experiment(); err != nil {
		return nil, err
	}
	return experimentJSON.Encode(r)
}

func (experimentCodec) Decode(payload []byte) (any, error) {
	v, err := experimentJSON.Decode(payload)
	if err != nil {
		return nil, err
	}
	r := v.(experimentRecord)
	e, err := r.experiment()
	if err != nil {
		return nil, err
	}
	if canon, err := experimentJSON.Encode(r); err != nil || !bytes.Equal(canon, payload) {
		return nil, errors.New("core: experiment decode: payload is not in canonical form")
	}
	return e, nil
}

// experiment returns the experiment r holds, or an error when Render
// could not draw it safely and within bounds.
func (r experimentRecord) experiment() (*Experiment, error) {
	e := &Experiment{ID: r.ID, Title: r.Title, Claim: r.Claim, Figure: r.Figure, Metrics: r.Metrics}
	if t := r.Table; t != nil {
		var err error
		if e.Table, err = stats.TableOf(t.Headers, t.Rows); err != nil {
			return nil, fmt.Errorf("core: experiment %s: %w", r.ID, err)
		}
		widths := make([]int, len(t.Headers))
		for i, h := range t.Headers {
			widths[i] = len(h)
		}
		for _, row := range t.Rows {
			for j, c := range row {
				widths[j] = max(widths[j], len(c))
			}
		}
		line := 1 + 2*max(len(widths)-1, 0)
		for _, w := range widths {
			line += w
		}
		if line*(len(t.Rows)+2) > maxTableRender {
			return nil, fmt.Errorf("core: experiment %s: table renders past %d bytes", r.ID, maxTableRender)
		}
	}
	if c := r.Figure; c != nil {
		if c.Width < 0 || c.Width > maxChartSide || c.Height < 0 || c.Height > maxChartSide {
			return nil, fmt.Errorf("core: experiment %s: figure size %dx%d outside [0, %d]", r.ID, c.Width, c.Height, maxChartSide)
		}
		for _, s := range c.Series {
			for _, p := range s.Points {
				if !(math.Abs(p.X) <= maxChartCoord && math.Abs(p.Y) <= maxChartCoord) {
					return nil, fmt.Errorf("core: experiment %s: figure point (%v, %v) is not finite or beyond ±%g", r.ID, p.X, p.Y, maxChartCoord)
				}
			}
		}
	}
	return e, nil
}
