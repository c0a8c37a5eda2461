package sim

import (
	"encoding/json"
	js "encoding/json"
	"io"
)

// loadRenamed decodes through a renamed import of encoding/json, which
// a match on the spelling "json" misses.
func loadRenamed(r io.Reader) (*scenario, error) {
	var s scenario
	if err := js.NewDecoder(r).Decode(&s); err != nil { // want `sim json\.Decoder used without DisallowUnknownFields`
		return nil, err
	}
	return &s, nil
}

// lookalike has a NewDecoder that is not encoding/json's.
type lookalike struct{}

func (lookalike) NewDecoder(r io.Reader) *json.Decoder {
	dec := js.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec
}

// loadLookalike calls the local NewDecoder through a value spelt json:
// a match on the spelling reports it, the type rule does not.
func loadLookalike(r io.Reader) (*scenario, error) {
	var s scenario
	json := lookalike{}
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}
