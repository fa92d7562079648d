package prof

import (
	"encoding/json"
	"fmt"
	"io"
)

// Series is the exported profile document: the whole session's merged
// footprint rows (SessionFootprints), so a profile written after a
// multi-row sweep still reconciles against static bounds. The counter
// time series of a run is the obs flight recorder's metrics CSV.
type Series struct {
	Footprints []FootprintStat `json:"footprints,omitempty"`
}

// WriteJSON writes the session's Series as an indented JSON document.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Series{Footprints: p.SessionFootprints()})
}

// DecodeSeries reads a Series document written by WriteJSON. Decoding is
// strict — an unknown field means the document is not a profile (or the
// schema drifted), and the consumers (parthtm-vet -prof) must fail loudly
// rather than reconcile against garbage.
func DecodeSeries(r io.Reader) (*Series, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Series
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("decoding profile series: %w", err)
	}
	return &s, nil
}
