package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"uswg/internal/config"
)

// applyPatch merges a JSON merge patch (RFC 7396) into spec: objects merge
// key by key, arrays and scalars replace, and null clears a pointer or an
// array. Keys match as config.Decode matches them, and an unknown key
// fails. The patch may not set a derived key.
func applyPatch(spec *config.Spec, patch []byte) error {
	nulls, err := arrayNulls(patch, nil)
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

// checkDerived fails when a key path, matched as config.Decode matches
// keys, names a key the scenario derives: the seed salt and the sessions
// formula derive seed and sessions per point, and the output the trace mode.
func checkDerived(path []string) error {
	for _, d := range [][]string{{"seed"}, {"sessions"}, {"trace", "mode"}} {
		if slices.EqualFunc(d, path, strings.EqualFold) {
			return fmt.Errorf("cannot set %q: the scenario derives it", strings.Join(path, "."))
		}
	}
	return nil
}

// arrayNulls walks the object patch at key path path under the spec (nil
// at the top) and returns the patch that sets to null every array it sets,
// or nil when it sets none. It rejects the derived keys.
func arrayNulls(patch []byte, path []string) (map[string]any, error) {
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
		keyPath := append(path[:len(path):len(path)], key)
		if err := checkDerived(keyPath); err != nil {
			return nil, fmt.Errorf("a spec patch %w", err)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return nil, err
		}
		var null any
		switch v[0] {
		case '[':
		case '{':
			sub, err := arrayNulls(v, keyPath)
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

// setPointer sets the number at a JSON pointer (RFC 6901) in spec to v. A
// token names an exported field by its JSON name, case-insensitively as
// config.Decode matches keys, or indexes an existing array element by its
// canonical decimal index, and a nil pointer on the way is allocated. The
// leaf takes v as encoding/json decodes a number: it must be a number
// field, and an integer field takes only an integral v that fits it. The
// pointer may not set a derived key, which no escape can spell.
func setPointer(spec *config.Spec, pointer string, v float64) error {
	rest, ok := strings.CutPrefix(pointer, "/")
	if !ok {
		return fmt.Errorf("bind %q is not a JSON pointer", pointer)
	}
	toks := strings.Split(rest, "/")
	if err := checkDerived(toks); err != nil {
		return fmt.Errorf("pointer %q %w", pointer, err)
	}
	f := reflect.ValueOf(spec).Elem()
	var tok string
	for _, raw := range toks {
		tok = pointerUnescape.Replace(raw)
		for f.Kind() == reflect.Pointer {
			if f.IsNil() {
				f.Set(reflect.New(f.Type().Elem()))
			}
			f = f.Elem()
		}
		switch f.Kind() {
		case reflect.Struct:
			if f = fieldByJSONName(f, tok); !f.IsValid() {
				return fmt.Errorf("pointer %q: token %q names no field", pointer, tok)
			}
		case reflect.Slice, reflect.Array:
			n, err := strconv.Atoi(tok)
			if err != nil || n < 0 || n >= f.Len() || strconv.Itoa(n) != tok {
				return fmt.Errorf("pointer %q: token %q is not an index into an array of %d elements", pointer, tok, f.Len())
			}
			f = f.Index(n)
		default:
			return fmt.Errorf("pointer %q: token %q: type %s has no fields or elements", pointer, tok, f.Type())
		}
	}
	num := strconv.FormatFloat(v, 'f', -1, 64)
	if err := json.Unmarshal([]byte(num), f.Addr().Interface()); err != nil {
		return fmt.Errorf("pointer %q: token %q: %w", pointer, tok, err)
	}
	return nil
}

// fieldByJSONName returns the exported field of struct s whose JSON name,
// its tag's or else its Go name, equals name case-insensitively, or the
// zero Value.
func fieldByJSONName(s reflect.Value, name string) reflect.Value {
	for i := range s.NumField() {
		sf := s.Type().Field(i)
		tag := sf.Tag.Get("json")
		key, _, _ := strings.Cut(tag, ",")
		if key == "" {
			key = sf.Name
		}
		if sf.IsExported() && tag != "-" && strings.EqualFold(key, name) {
			return s.Field(i)
		}
	}
	return reflect.Value{}
}
