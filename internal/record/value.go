package record

import (
	"fmt"
	"math"
	"strconv"
)

// Value is a dynamically typed field value. It is a small tagged struct
// rather than an interface to keep hot paths allocation-free.
type Value struct {
	Kind Type
	I    int64
	F    float64
	B    bool
	S    []byte // string/bytes payload; may alias an encoded record
}

// Int constructs an integer value.
func Int(i int64) Value { return Value{Kind: TInt, I: i} }

// Float constructs a float value.
func Float(f float64) Value { return Value{Kind: TFloat, F: f} }

// Bool constructs a boolean value.
func Bool(b bool) Value { return Value{Kind: TBool, B: b} }

// Str constructs a string value.
func Str(s string) Value { return Value{Kind: TString, S: []byte(s)} }

// Bytes constructs a raw bytes value.
func Bytes(b []byte) Value { return Value{Kind: TBytes, S: b} }

func (v Value) checkType(t Type) error {
	if v.Kind == t {
		return nil
	}
	// Strings and bytes are interchangeable payloads.
	if (v.Kind == TString || v.Kind == TBytes) && (t == TString || t == TBytes) {
		return nil
	}
	return fmt.Errorf("value of type %s where %s expected", v.Kind, t)
}

// Copy returns a value whose payload does not alias any encoded record.
func (v Value) Copy() Value {
	if v.S != nil {
		v.S = append([]byte(nil), v.S...)
	}
	return v
}

// String renders the value for debugging and plan explanation.
func (v Value) String() string {
	switch v.Kind {
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TBool:
		return strconv.FormatBool(v.B)
	case TString:
		return strconv.Quote(string(v.S))
	case TBytes:
		return fmt.Sprintf("0x%x", v.S)
	default:
		return fmt.Sprintf("value(kind=%d)", v.Kind)
	}
}

// CompareValues orders two values of the same kind: -1, 0, or +1.
// Booleans order false < true; floats order with NaN smallest so that
// sorting is total.
func CompareValues(a, b Value) int {
	switch a.Kind {
	case TInt:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	case TFloat:
		return compareFloats(a.F, b.F)
	case TBool:
		switch {
		case !a.B && b.B:
			return -1
		case a.B && !b.B:
			return 1
		}
		return 0
	default:
		return compareBytes(a.S, b.S)
	}
}

func compareFloats(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// mathFloat64bits and mathFloat64frombits are tiny wrappers so record.go
// does not import math directly next to encoding/binary hot paths.
func mathFloat64bits(f float64) uint64     { return math.Float64bits(f) }
func mathFloat64frombits(u uint64) float64 { return math.Float64frombits(u) }
