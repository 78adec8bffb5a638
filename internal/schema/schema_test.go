package schema

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

type inner struct {
	Rate  float64  `key:"rate" min:"0" max:"1"`
	Level *float64 `key:"level" gt:"0"`
}

type base struct {
	Name  string `key:"name" default:"j90"`
	Count int    `key:"count" default:"1" min:"1"`
}

type item struct {
	Step  int    `key:"step" required:"true"`
	Kind  string `key:"kind"`
	Extra int    `key:"extra"`
}

// CheckKeys rejects extra on anything but kind "x".
func (it *item) CheckKeys(m map[string]any) error {
	if _, set := m["extra"]; set && it.Kind != "x" {
		return errors.New(`key "extra" needs kind x`)
	}
	return nil
}

type doc struct {
	base
	On     bool     `key:"on" default:"true"`
	Seed   uint64   `key:"seed"`
	Inner  inner    `key:"inner"`
	Opt    *inner   `key:"opt"`
	Items  []item   `key:"items"`
	Tags   []string `key:"tags"`
	Hidden string
}

func TestDecodeDefaultsAndNesting(t *testing.T) {
	var d doc
	err := Decode(map[string]any{
		"count": int64(3),
		"opt":   map[string]any{"rate": 0.5},
		"items": []any{map[string]any{"step": int64(2)}, map[string]any{"step": int64(4), "kind": "x", "extra": int64(1)}},
		"tags":  []any{"a", "b"},
	}, &d)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "j90" || d.Count != 3 || !d.On {
		t.Fatalf("defaults and inline fields wrong: %+v", d)
	}
	if d.Opt == nil || d.Opt.Rate != 0.5 || d.Opt.Level != nil {
		t.Fatalf("pointer struct wrong: %+v", d.Opt)
	}
	if len(d.Items) != 2 || d.Items[1].Extra != 1 || strings.Join(d.Tags, ",") != "a,b" {
		t.Fatalf("sequences wrong: %+v %v", d.Items, d.Tags)
	}
	var empty doc
	if err := Decode(map[string]any{"items": []any{}}, &empty); err != nil || empty.Items != nil {
		t.Fatalf("an empty sequence must leave the slice nil: %v %v", empty.Items, err)
	}
}

func TestDecodeErrorsNameThePath(t *testing.T) {
	for _, tc := range []struct {
		tree any
		want string
	}{
		{"x", "expected a mapping, got a string"},
		{map[string]any{"bogus": 1}, `unknown key "bogus"`},
		{map[string]any{"inner": map[string]any{"nodes": 1}}, `inner: unknown key "nodes"`},
		{map[string]any{"count": 1.5}, "count: expected an integer, got a float"},
		{map[string]any{"on": "yes"}, "on: expected a boolean, got a string"},
		{map[string]any{"seed": int64(-1)}, "seed: expected a non-negative integer, got -1"},
		{map[string]any{"inner": map[string]any{"rate": "hi"}}, "inner.rate: expected a number, got a string"},
		{map[string]any{"items": map[string]any{}}, "items: expected a sequence, got a mapping"},
		{map[string]any{"items": []any{map[string]any{"kind": "y"}}}, "items[0]: missing step"},
		{map[string]any{"items": []any{map[string]any{"step": int64(1), "extra": int64(2)}}}, `items[0]: key "extra" needs kind x`},
		{map[string]any{"tags": []any{int64(1)}}, "tags[0]: expected a string, got an integer"},
		{map[string]any{"Hidden": "x"}, `unknown key "Hidden"`},
	} {
		var d doc
		err := Decode(tc.tree, &d)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Decode(%v) = %v, want %q", tc.tree, err, tc.want)
		}
	}
}

func TestFillOnlyZeroNumbersAndStrings(t *testing.T) {
	d := doc{base: base{Count: 5}, Opt: &inner{}}
	Fill(&d)
	if d.Name != "j90" || d.Count != 5 || d.On {
		t.Fatalf("Fill must default only zero numbers and strings: %+v", d)
	}
}

func TestCheckRanges(t *testing.T) {
	neg, nan := -1.0, math.NaN()
	for _, tc := range []struct {
		mut  func(*doc)
		want string
	}{
		{func(d *doc) {}, ""},
		{func(d *doc) { d.Count = 0 }, "count must be >= 1, have 0"},
		{func(d *doc) { d.Inner.Rate = 1.5 }, "inner.rate 1.5 outside [0, 1]"},
		{func(d *doc) { d.Inner.Rate = nan }, "inner.rate NaN outside [0, 1]"},
		{func(d *doc) { d.Opt = &inner{Level: &neg} }, "opt.level must be positive, have -1"},
	} {
		d := doc{base: base{Count: 1}}
		tc.mut(&d)
		got := ""
		if err := Check(&d); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("Check = %q, want %q", got, tc.want)
		}
	}
}

func TestNonZeroAndPlanCache(t *testing.T) {
	d := doc{Seed: 3, Tags: []string{"a"}}
	if got := strings.Join(NonZero(&d), ","); got != "seed,tags" {
		t.Fatalf("NonZero = %s", got)
	}
	typ := reflect.TypeOf(doc{})
	if planOf(typ) != planOf(typ) {
		t.Fatal("tags parsed more than once for one type")
	}
}
