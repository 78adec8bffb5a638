// Package schema applies the keys, defaults and single-field ranges a
// configuration struct declares in its field tags: it decodes a generic
// tree — the map[string]any / []any / scalar values a YAML or JSON parser
// yields — into the struct, fills defaults, and checks ranges, with errors
// that name the field by its key path ("fleet.steps", "events[2].rate").
//
// Tags:
//
//	key:"update_every"  the field's key; a field without one is not part
//	                    of the schema, and an untagged embedded struct
//	                    contributes its fields inline
//	default:"1"         the value a field holds before decoding (Decode),
//	                    or in place of a zero number or empty string (Fill)
//	min:"0" max:"1"     inclusive bounds of a number (max needs a lower bound)
//	gt:"0"              exclusive lower bound of a number
//	required:"true"     Decode fails when the key is absent
//
// Tags are parsed once per type.
package schema

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"sync"
)

// KeyChecker is implemented by types whose rules depend on which keys
// are present, not only on their values.  Decode calls CheckKeys with the
// decoded mapping once the type's own fields are filled in.
type KeyChecker interface {
	CheckKeys(m map[string]any) error
}

// field is one tagged field of a struct type.
type field struct {
	index        []int
	key          string
	def          reflect.Value // invalid without a default tag
	required     bool
	min, gt, max *float64 // nil when not declared
}

// plan is the parsed tag metadata of one struct type.
type plan struct {
	fields []field
	byKey  map[string]int
}

var plans sync.Map // reflect.Type -> *plan

func planOf(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	p := &plan{byKey: map[string]int{}}
	p.add(t, nil)
	actual, _ := plans.LoadOrStore(t, p)
	return actual.(*plan)
}

func (p *plan) add(t reflect.Type, prefix []int) {
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		index := append(append([]int(nil), prefix...), i)
		key := sf.Tag.Get("key")
		if key == "" && sf.Anonymous && sf.Type.Kind() == reflect.Struct {
			p.add(sf.Type, index)
			continue
		}
		if key == "" {
			continue
		}
		f := field{index: index, key: key, required: sf.Tag.Get("required") == "true"}
		if s, ok := sf.Tag.Lookup("default"); ok {
			f.def = reflect.New(sf.Type)
			if sf.Type.Kind() == reflect.String {
				s = strconv.Quote(s)
			}
			if err := json.Unmarshal([]byte(s), f.def.Interface()); err != nil {
				panic(fmt.Sprintf("schema: default of %s: %v", sf.Name, err))
			}
			f.def = f.def.Elem()
		}
		f.min, f.gt, f.max = bound(sf, "min"), bound(sf, "gt"), bound(sf, "max")
		p.byKey[key] = len(p.fields)
		p.fields = append(p.fields, f)
	}
}

func bound(sf reflect.StructField, name string) *float64 {
	s, ok := sf.Tag.Lookup(name)
	if !ok {
		return nil
	}
	x, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic(fmt.Sprintf("schema: %s of %s: %v", name, sf.Name, err))
	}
	return &x
}

// Decode fills the struct dst points to from tree: defaults first, then
// every key of the mapping, rejecting keys the struct does not declare,
// missing required keys and values of the wrong type.  Ranges are
// Check's.
func Decode(tree, dst any) error {
	return decode(tree, reflect.ValueOf(dst).Elem(), "")
}

func decode(node any, v reflect.Value, path string) error {
	switch v.Kind() {
	case reflect.Pointer:
		nv := reflect.New(v.Type().Elem())
		if err := decode(node, nv.Elem(), path); err != nil {
			return err
		}
		v.Set(nv)
	case reflect.Struct:
		return decodeStruct(node, v, path)
	case reflect.Slice:
		seq, ok := node.([]any)
		if !ok {
			return mismatch(path, "a sequence", node)
		}
		for i, item := range seq {
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
			if err := decode(item, v.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	case reflect.String, reflect.Bool:
		nv := reflect.ValueOf(node)
		if nv.Kind() != v.Kind() {
			return mismatch(path, kinds[v.Kind()], node)
		}
		v.Set(nv.Convert(v.Type()))
	case reflect.Int, reflect.Int64:
		n, ok := node.(int64)
		if !ok {
			return mismatch(path, "an integer", node)
		}
		if v.OverflowInt(n) {
			return fmt.Errorf("%s: integer %d out of range", path, n)
		}
		v.SetInt(n)
	case reflect.Uint64:
		n, ok := node.(int64)
		if !ok || n < 0 {
			return fmt.Errorf("%s: expected a non-negative integer, got %v", path, node)
		}
		v.SetUint(uint64(n))
	case reflect.Float64:
		switch x := node.(type) {
		case float64:
			v.SetFloat(x)
		case int64:
			v.SetFloat(float64(x))
		default:
			return mismatch(path, "a number", node)
		}
	default:
		panic(fmt.Sprintf("schema: %s: unsupported kind %s", path, v.Kind()))
	}
	return nil
}

func decodeStruct(node any, v reflect.Value, path string) error {
	m, ok := node.(map[string]any)
	if !ok {
		return mismatch(path, "a mapping", node)
	}
	p := planOf(v.Type())
	defaults(v, false)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		i, ok := p.byKey[k]
		if !ok {
			return errAt(path, "unknown key %q", k)
		}
		if err := decode(m[k], v.FieldByIndex(p.fields[i].index), join(path, k)); err != nil {
			return err
		}
	}
	for _, f := range p.fields {
		if _, ok := m[f.key]; f.required && !ok {
			return errAt(path, "missing %s", f.key)
		}
	}
	if c, ok := v.Addr().Interface().(KeyChecker); ok {
		if err := c.CheckKeys(m); err != nil {
			return errAt(path, "%v", err)
		}
	}
	return nil
}

// Fill gives every zero number and empty string that declares a default
// its default, in nested structs too — the projection of a wire form
// whose zero value means "unset".  Booleans are left alone: false cannot
// be told from unset.
func Fill(dst any) {
	defaults(reflect.ValueOf(dst).Elem(), true)
}

func defaults(v reflect.Value, zeroOnly bool) {
	walk(v, "", func(f *field, fv reflect.Value, _ string) error {
		if f.def.IsValid() && (!zeroOnly || (fv.Kind() != reflect.Bool && fv.IsZero())) {
			fv.Set(f.def)
		}
		return nil
	})
}

// Check tests every number against its declared range, in nested
// structs, set pointers and struct slices, and names the first one out of
// range by its key path.  NaN is out of every range.
func Check(v any) error {
	return walk(reflect.ValueOf(v).Elem(), "", func(f *field, fv reflect.Value, parent string) error {
		var x float64
		switch {
		case f.min == nil && f.gt == nil && f.max == nil:
			return nil
		case fv.CanInt():
			x = float64(fv.Int())
		case fv.CanUint():
			x = float64(fv.Uint())
		case fv.CanFloat():
			x = fv.Float()
		default:
			return nil
		}
		if (f.min == nil || x >= *f.min) && (f.gt == nil || x > *f.gt) && (f.max == nil || x <= *f.max) {
			return nil
		}
		path, have := join(parent, f.key), fv.Interface()
		switch {
		case f.max != nil && f.gt != nil:
			return fmt.Errorf("%s %v outside (%v, %v]", path, have, *f.gt, *f.max)
		case f.max != nil:
			return fmt.Errorf("%s %v outside [%v, %v]", path, have, *f.min, *f.max)
		case f.gt != nil && *f.gt == 0:
			return fmt.Errorf("%s must be positive, have %v", path, have)
		case f.gt != nil:
			return fmt.Errorf("%s must be > %v, have %v", path, *f.gt, have)
		case *f.min == 0:
			return fmt.Errorf("%s must be non-negative, have %v", path, have)
		}
		return fmt.Errorf("%s must be >= %v, have %v", path, *f.min, have)
	})
}

// walk calls fn with every scalar schema field under the struct v, whose
// key path is parent, descending into nested structs, set pointers and
// struct slice elements.  fn joins parent and f.key only to name a field,
// so walking a flat schema builds no strings.
func walk(v reflect.Value, parent string, fn func(f *field, fv reflect.Value, parent string) error) error {
	p := planOf(v.Type())
	for i := range p.fields {
		f := &p.fields[i]
		fv := v.FieldByIndex(f.index)
		if fv.Kind() == reflect.Pointer {
			if fv.IsNil() {
				continue
			}
			fv = fv.Elem()
		}
		var err error
		switch fv.Kind() {
		case reflect.Struct:
			err = walk(fv, join(parent, f.key), fn)
		case reflect.Slice:
			for j := 0; j < fv.Len() && err == nil; j++ {
				if el := fv.Index(j); el.Kind() == reflect.Struct {
					err = walk(el, fmt.Sprintf("%s[%d]", join(parent, f.key), j), fn)
				}
			}
		default:
			err = fn(f, fv, parent)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// NonZero lists the keys of the fields of the struct v points to that
// hold a non-zero value, in declaration order.
func NonZero(v any) []string {
	rv := reflect.ValueOf(v).Elem()
	var keys []string
	for _, f := range planOf(rv.Type()).fields {
		if !rv.FieldByIndex(f.index).IsZero() {
			keys = append(keys, f.key)
		}
	}
	return keys
}

func join(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

func errAt(path, format string, args ...any) error {
	if path == "" {
		return fmt.Errorf(format, args...)
	}
	return fmt.Errorf("%s: %s", path, fmt.Sprintf(format, args...))
}

// kinds names the values a parsed tree holds, for error messages.
var kinds = map[reflect.Kind]string{
	reflect.Map: "a mapping", reflect.Slice: "a sequence", reflect.String: "a string",
	reflect.Bool: "a boolean", reflect.Int64: "an integer", reflect.Float64: "a float",
}

func mismatch(path, want string, node any) error {
	got := "null"
	if node != nil {
		if got = kinds[reflect.TypeOf(node).Kind()]; got == "" {
			got = fmt.Sprintf("%T", node)
		}
	}
	return errAt(path, "expected %s, got %s", want, got)
}
