package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
)

// Float is a float64 with a canonical JSON form: the shortest decimal that
// round-trips (strconv 'g' with precision -1), and the non-finite values —
// which encoding/json rejects outright — as the strings "NaN", "+Inf",
// "-Inf". Every float in the record schema uses it, so a campaign file's
// bytes are a pure function of the result values: decode → re-encode is
// byte-identical, and two runs that compute the same numbers produce the
// same file regardless of machine or worker count.
type Float float64

// MarshalJSON implements the canonical float encoding.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return []byte(strconv.FormatFloat(v, 'g', -1, 64)), nil
}

// UnmarshalJSON accepts both the numeric and the quoted non-finite forms.
func (f *Float) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*f = Float(math.NaN())
		case "+Inf":
			*f = Float(math.Inf(1))
		case "-Inf":
			*f = Float(math.Inf(-1))
		default:
			return fmt.Errorf("report: invalid float string %q", s)
		}
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("report: invalid float %q: %w", b, err)
	}
	*f = Float(v)
	return nil
}

// Marshal renders the campaign in canonical JSON: two-space indent, struct
// fields in schema order, map keys sorted (encoding/json's map contract),
// floats via Float's canonical form, and a trailing newline.
func Marshal(c *Campaign) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Encode writes the canonical JSON form of the campaign to w.
func Encode(w io.Writer, c *Campaign) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(c)
}

// Decode reads a campaign file produced by Encode (or any JSON matching the
// schema). A null report or row is refused: Encode never writes one, and
// Diff and Text read every entry.
func Decode(r io.Reader) (*Campaign, error) {
	var c Campaign
	dec := json.NewDecoder(r)
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("report: decode campaign: %w", err)
	}
	for i, rep := range c.Reports {
		if rep == nil {
			return nil, fmt.Errorf("report: decode campaign: report %d is null", i)
		}
		if slices.Contains(rep.Rows, nil) {
			return nil, fmt.Errorf("report: decode campaign: report %q has a null row", rep.ID)
		}
	}
	return &c, nil
}
