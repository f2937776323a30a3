package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// oracleRead is Read as it stood on encoding/json's Decoder, kept as the
// reference Decode is fuzzed against. It stops after the first JSON value,
// so unlike Decode it ignores whatever follows the document.
func oracleRead(r io.Reader) (Document, error) {
	var d Document
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return Document{}, fmt.Errorf("trace: decode: %w", err)
	}
	if err := d.Validate(); err != nil {
		return Document{}, err
	}
	return d, nil
}
