package enc

// Value codecs for the transport layer: how one collective's deposit — an
// `any` holding a concrete Go value — crosses a process boundary. The SPMD
// contract makes every rank of a superstep deposit the same concrete type,
// so frames never carry type descriptors: the sender encodes with its slot's
// codec and the receiver decodes with its own collective's codec for the
// same superstep.
//
// One rule, applied at every depth of a value:
//
//   - A POD subtree — a fixed-size type containing no pointers: ints, floats,
//     bools, and arrays/structs thereof, unexported fields included — is its
//     in-memory bytes. The TCP handshake pins word size and byte order, so
//     raw bytes round-trip exactly; float bits in particular survive
//     untouched, which modeled-clock parity across transports depends on. A
//     POD struct has the same encoding deposited on its own and nested in a
//     walked struct; a []POD is a flag, a count and one bulk copy.
//   - Everything else is walked: uvarint length-prefixed strings and slices
//     (slices with a nil flag), flag-prefixed pointers, structs field by
//     field (exported fields only — reflection cannot set unexported ones),
//     and a bool standing directly in a walked struct, whose byte is
//     validated. Any other shape (map, chan, func, interface, an array of
//     non-POD elements) panics at codec construction — a programmer error,
//     found the first time the collective runs — while malformed BYTES always
//     surface as typed errors, never panics.
//
// Audit of what leaves the POD case today: string (graphio.shareErr), the
// two METIS stage structs (Err string + POD), dsort's sampleSet{Items []T},
// the job-control frames wireJobSpec and wireJobEnd, and comm's
// *a2aFrame[T]; every other deposit is POD or []POD. Explicit per-type
// codecs for these would need a registration hook through the generic
// collectives, so the walker stays and serves exactly these shapes.

import (
	"fmt"
	"reflect"
	"sync"
	"unsafe"
)

// Codec serializes one concrete value type for wire transport.
type Codec struct{ rt reflect.Type }

// Name reports the codec's type name, for diagnostics.
func (c *Codec) Name() string { return c.rt.String() }

// Append encodes v (which must hold the codec's type) onto dst.
func (c *Codec) Append(dst []byte, v any) []byte {
	// An addressable copy, so POD subtrees can be viewed as bytes.
	rv := reflect.New(c.rt).Elem()
	rv.Set(reflect.ValueOf(v))
	return encValue(dst, rv)
}

// Decode decodes one value from b, returning the value, the remaining
// bytes, and a typed error (ErrTruncated/ErrOversized/ErrCorrupt) on
// malformed input.
func (c *Codec) Decode(b []byte) (any, []byte, error) {
	rv := reflect.New(c.rt).Elem()
	rest, err := decValue(b, rv)
	if err != nil {
		return nil, nil, err
	}
	return rv.Interface(), rest, nil
}

// CodecFor returns the cached codec for T, building it on first use. It
// panics if T is not wire-encodable (chan, func, map, interface, non-POD
// array, or unexported fields outside a POD subtree) — a programmer error
// surfaced the first time a remote-backed collective carries the type.
func CodecFor[T any]() *Codec {
	rt := reflect.TypeOf((*T)(nil)).Elem()
	if c, ok := codecCache.Load(rt); ok {
		return c.(*Codec)
	}
	validateWireType(rt, rt)
	c, _ := codecCache.LoadOrStore(rt, &Codec{rt: rt})
	return c.(*Codec)
}

var codecCache sync.Map // reflect.Type -> *Codec

// isPOD reports whether rt is a fixed-size type containing no pointers, so
// its in-memory bytes ARE its wire encoding.
func isPOD(rt reflect.Type) bool {
	switch rt.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return isPOD(rt.Elem())
	case reflect.Struct:
		for i := 0; i < rt.NumField(); i++ {
			if !isPOD(rt.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// rawPOD reports whether the walker copies rt's bytes as they are: every POD
// type except a bare bool, whose byte decode validates.
func rawPOD(rt reflect.Type) bool { return rt.Kind() != reflect.Bool && isPOD(rt) }

// podBytes views n consecutive POD values starting at p as raw bytes.
func podBytes(p unsafe.Pointer, n int, rt reflect.Type) []byte {
	return unsafe.Slice((*byte)(p), n*int(rt.Size()))
}

// validateWireType panics (at codec construction, not at transfer time) if
// any reachable part of rt cannot cross the wire.
func validateWireType(root, rt reflect.Type) {
	if isPOD(rt) {
		return
	}
	switch rt.Kind() {
	case reflect.String:
	case reflect.Slice, reflect.Pointer:
		validateWireType(root, rt.Elem())
	case reflect.Struct:
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			if f.PkgPath != "" {
				panic(fmt.Sprintf("enc: %v is not wire-encodable: unexported field %s.%s outside a POD subtree", root, rt, f.Name))
			}
			validateWireType(root, f.Type)
		}
	default:
		panic(fmt.Sprintf("enc: %v is not wire-encodable: %v (%v)", root, rt, rt.Kind()))
	}
}

// encValue appends the encoding of the addressable rv.
func encValue(dst []byte, rv reflect.Value) []byte {
	rt := rv.Type()
	if rawPOD(rt) {
		return append(dst, podBytes(rv.Addr().UnsafePointer(), 1, rt)...)
	}
	switch rt.Kind() {
	case reflect.Bool:
		if rv.Bool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	case reflect.String:
		return AppendString(dst, rv.String())
	case reflect.Slice:
		if rv.IsNil() {
			return append(dst, 0)
		}
		dst = append(dst, 1)
		n := rv.Len()
		dst = AppendUvarint(dst, uint64(n))
		if et := rt.Elem(); rawPOD(et) {
			return append(dst, podBytes(rv.UnsafePointer(), n, et)...)
		}
		for i := 0; i < n; i++ {
			dst = encValue(dst, rv.Index(i))
		}
		return dst
	case reflect.Pointer:
		if rv.IsNil() {
			return append(dst, 0)
		}
		return encValue(append(dst, 1), rv.Elem())
	case reflect.Struct:
		for i := 0; i < rv.NumField(); i++ {
			dst = encValue(dst, rv.Field(i))
		}
		return dst
	}
	panic(fmt.Sprintf("enc: cannot encode %v", rt))
}

// decFlag reads the one-byte 0/1 flag that encodes a bool and prefixes
// slices (non-nil) and pointers (non-nil).
func decFlag(b []byte, what string) (bool, []byte, error) {
	if len(b) < 1 {
		return false, nil, fmt.Errorf("%w: %s flag", ErrTruncated, what)
	}
	if b[0] > 1 {
		return false, nil, fmt.Errorf("%w: %s flag %d", ErrCorrupt, what, b[0])
	}
	return b[0] == 1, b[1:], nil
}

// decValue decodes one value into the addressable rv, returning the
// remaining bytes. Malformed input is a typed error; counts are checked
// against the remaining byte budget before any allocation, so a corrupt
// length cannot reserve unbounded memory.
func decValue(b []byte, rv reflect.Value) ([]byte, error) {
	rt := rv.Type()
	if rawPOD(rt) {
		size := int(rt.Size())
		if len(b) < size {
			return nil, fmt.Errorf("%w: %s needs %d bytes, %d left", ErrTruncated, rt, size, len(b))
		}
		copy(podBytes(rv.Addr().UnsafePointer(), 1, rt), b)
		return b[size:], nil
	}
	switch rt.Kind() {
	case reflect.Bool:
		set, rest, err := decFlag(b, "bool")
		rv.SetBool(set)
		return rest, err
	case reflect.String:
		r := NewReader(b)
		s := r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		rv.SetString(s)
		return b[len(b)-r.Len():], nil
	case reflect.Slice:
		set, b, err := decFlag(b, "slice")
		if err != nil || !set {
			rv.SetZero()
			return b, err
		}
		r := NewReader(b)
		n := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		b = b[len(b)-r.Len():]
		// Elements occupy their size (POD) or at least one byte (walked).
		et := rt.Elem()
		pod, per := rawPOD(et), uint64(1)
		if pod {
			per = uint64(et.Size())
		}
		if per > 0 && n > uint64(len(b))/per {
			return nil, fmt.Errorf("%w: %d %s elements in %d bytes", ErrOversized, n, et, len(b))
		}
		sl := reflect.MakeSlice(rt, int(n), int(n))
		if pod {
			b = b[copy(podBytes(sl.UnsafePointer(), int(n), et), b):]
		} else {
			for i := 0; i < int(n); i++ {
				if b, err = decValue(b, sl.Index(i)); err != nil {
					return nil, err
				}
			}
		}
		rv.Set(sl)
		return b, nil
	case reflect.Pointer:
		set, b, err := decFlag(b, "pointer")
		if err != nil || !set {
			rv.SetZero()
			return b, err
		}
		nv := reflect.New(rt.Elem())
		rv.Set(nv)
		return decValue(b, nv.Elem())
	case reflect.Struct:
		var err error
		for i := 0; i < rv.NumField(); i++ {
			if b, err = decValue(b, rv.Field(i)); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	return nil, fmt.Errorf("%w: undecodable kind %v", ErrCorrupt, rt.Kind())
}
