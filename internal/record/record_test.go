package record

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestValueCloneIndependent(t *testing.T) {
	v := Value{Attrs: map[string]int64{"stock": 5}, Blob: []byte("row")}
	c := v.Clone()
	c.Attrs["stock"] = 99
	c.Blob[0] = 'X'
	if v.Attrs["stock"] != 5 || v.Blob[0] != 'r' {
		t.Fatal("Clone shares storage with original")
	}
	if !v.Equal(v.Clone()) {
		t.Fatal("Clone not Equal to original")
	}
}

func TestValueEqual(t *testing.T) {
	a := Value{Attrs: map[string]int64{"x": 1}}
	b := Value{Attrs: map[string]int64{"x": 1}}
	if !a.Equal(b) {
		t.Fatal("equal values reported unequal")
	}
	cases := []Value{
		{Attrs: map[string]int64{"x": 2}},
		{Attrs: map[string]int64{"y": 1}},
		{Attrs: map[string]int64{"x": 1, "y": 0}},
		{Attrs: map[string]int64{"x": 1}, Blob: []byte{1}},
		{Attrs: map[string]int64{"x": 1}, Tombstone: true},
	}
	for i, c := range cases {
		if a.Equal(c) {
			t.Fatalf("case %d: unequal values reported equal", i)
		}
	}
}

func TestWithAttr(t *testing.T) {
	var v Value // nil attrs
	w := v.WithAttr("stock", 7)
	if w.Attr("stock") != 7 {
		t.Fatalf("WithAttr: got %d", w.Attr("stock"))
	}
	if v.Attrs != nil {
		t.Fatal("WithAttr mutated receiver")
	}
	if v.Attr("missing") != 0 {
		t.Fatal("Attr on missing name should be 0")
	}
}

func TestPhysicalApply(t *testing.T) {
	cur := Encode(Value{Attrs: map[string]int64{"stock": 10}})
	u := Physical("item/1", 3, Value{Attrs: map[string]int64{"stock": 1}})
	got := u.Apply(cur)
	if got.Decode().Attr("stock") != 1 {
		t.Fatalf("physical apply = %v", got)
	}
	if cur.Decode().Attr("stock") != 10 {
		t.Fatal("Apply mutated current value")
	}
}

// TestPhysicalKeepsNoCallerValue: the update holds the value's bytes,
// so what the caller does to its Value afterwards changes nothing.
func TestPhysicalKeepsNoCallerValue(t *testing.T) {
	v := Value{Attrs: map[string]int64{"x": 1}, Blob: []byte("row")}
	u := Insert("k", v)
	v.Attrs["x"] = 999
	v.Blob[0] = 'X'
	if got := u.NewValue.Decode(); got.Attr("x") != 1 || string(got.Blob) != "row" {
		t.Fatalf("update changed with the caller's value: %v", got)
	}
}

func TestCommutativeApply(t *testing.T) {
	cur := Encode(Value{Attrs: map[string]int64{"stock": 10}})
	u := Commutative("item/1", map[string]int64{"stock": -3, "sold": 3})
	got := u.Apply(cur)
	if got.Decode().Attr("stock") != 7 || got.Decode().Attr("sold") != 3 {
		t.Fatalf("commutative apply = %v", got)
	}
	// Apply to empty value creates attrs.
	got2 := u.Apply(nil)
	if got2.Decode().Attr("stock") != -3 {
		t.Fatalf("commutative apply on empty = %v", got2)
	}
}

func TestCommutativeCopiesDeltas(t *testing.T) {
	deltas := map[string]int64{"stock": -1}
	u := Commutative("k", deltas)
	deltas["stock"] = -99
	if u.Deltas["stock"] != -1 {
		t.Fatal("Commutative aliased caller's map")
	}
}

func TestCommutativeApplyOrderIndependent(t *testing.T) {
	f := func(d1, d2 int64, base int64) bool {
		cur := Encode(Value{Attrs: map[string]int64{"x": base}})
		u1 := Commutative("k", map[string]int64{"x": d1})
		u2 := Commutative("k", map[string]int64{"x": d2})
		a := u2.Apply(u1.Apply(cur))
		b := u1.Apply(u2.Apply(cur))
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDelete(t *testing.T) {
	ins := Insert("item/9", Value{Attrs: map[string]int64{"stock": 4}})
	if ins.ReadVersion != 0 || ins.Kind != KindPhysical {
		t.Fatalf("Insert = %+v", ins)
	}
	del := Delete("item/9", 5)
	if !del.NewValue.Tombstone() || del.ReadVersion != 5 {
		t.Fatalf("Delete = %+v", del)
	}
	got := del.Apply(Encode(Value{Attrs: map[string]int64{"stock": 4}}))
	if !got.Tombstone() || !got.Decode().Tombstone {
		t.Fatal("delete apply should produce a tombstone")
	}
}

func TestConstraint(t *testing.T) {
	c := MinBound("stock", 0)
	if !c.Satisfied(0) || !c.Satisfied(5) || c.Satisfied(-1) {
		t.Fatalf("MinBound misbehaves: %s", c)
	}
	u := MaxBound("stock", 10)
	if !u.Satisfied(10) || u.Satisfied(11) {
		t.Fatalf("MaxBound misbehaves: %s", u)
	}
	b := Bound("stock", 0, 10)
	if b.Satisfied(-1) || b.Satisfied(11) || !b.Satisfied(5) {
		t.Fatalf("Bound misbehaves: %s", b)
	}
	var free Constraint
	if !free.Satisfied(-1 << 40) {
		t.Fatal("unconstrained should accept anything")
	}
}

func TestStringForms(t *testing.T) {
	if (Value{}).String() == "" {
		t.Fatal("empty value String")
	}
	if (Value{Tombstone: true}).String() != "<tombstone>" {
		t.Fatal("tombstone String")
	}
	for _, s := range []string{
		Physical("k", 1, Value{}).String(),
		Commutative("k", map[string]int64{"a": 1, "b": -2}).String(),
		MinBound("x", 0).String(),
		MaxBound("x", 9).String(),
		Bound("x", 0, 9).String(),
		Constraint{Attr: "x"}.String(),
	} {
		if s == "" {
			t.Fatal("empty String form")
		}
	}
}
