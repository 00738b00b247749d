package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"uswg/internal/config"
)

// applyPatch merges a JSON merge patch (RFC 7396) into spec: objects merge
// key by key, arrays and scalars replace, and null clears a pointer or an
// array. Keys match as config.Decode matches them, and an unknown key
// fails. The patch may not set seed or sessions, which every point derives.
func applyPatch(spec *config.Spec, patch []byte) error {
	nulls, err := arrayNulls(patch, true)
	if err != nil {
		return err
	}
	if nulls != nil {
		// encoding/json decodes an array into the slice's existing
		// elements, merging into them; clearing each array the patch sets
		// first makes the patch's array replace the default's.
		js, err := json.Marshal(nulls)
		if err != nil {
			return err
		}
		if err := decodeStrict(js, spec); err != nil {
			return err
		}
	}
	return decodeStrict(patch, spec)
}

// arrayNulls walks an object patch and returns the patch that sets to null
// every array it sets, or nil when it sets none. At the top level it also
// rejects the keys a scenario derives per point.
func arrayNulls(patch []byte, top bool) (map[string]any, error) {
	dec := json.NewDecoder(bytes.NewReader(patch))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, errors.New("a spec patch must be a JSON object")
	}
	var nulls map[string]any
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		key := tok.(string)
		if top && (strings.EqualFold(key, "seed") || strings.EqualFold(key, "sessions")) {
			return nil, fmt.Errorf("a spec patch cannot set %q: the seed salt and the sessions formula derive it per point", key)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return nil, err
		}
		var null any
		switch v[0] {
		case '[':
		case '{':
			sub, err := arrayNulls(v, false)
			if err != nil {
				return nil, err
			}
			if sub == nil {
				continue
			}
			null = sub
		default:
			continue
		}
		if nulls == nil {
			nulls = map[string]any{}
		}
		nulls[key] = null
	}
	return nulls, nil
}

// decodeStrict decodes data over spec, rejecting unknown keys.
func decodeStrict(data []byte, spec *config.Spec) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(spec)
}

// pointerUnescape decodes a JSON pointer reference token (RFC 6901).
var pointerUnescape = strings.NewReplacer("~1", "/", "~0", "~")

// pointerPatch returns the merge patch that sets the spec field at a JSON
// pointer to v. encoding/json prints an integral v without an exponent
// below 1e21, so an int field takes it; a fractional v fails there.
func pointerPatch(pointer string, v float64) ([]byte, error) {
	var patch any = v
	toks := strings.Split(pointer, "/")
	for i := len(toks) - 1; i > 0; i-- {
		patch = map[string]any{pointerUnescape.Replace(toks[i]): patch}
	}
	return json.Marshal(patch)
}
