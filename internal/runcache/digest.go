// Package runcache is a content-addressed store for simulation results.
//
// Every experiment point in this repo is a pure function of its
// configuration and seed: the same inputs produce bit-identical outputs
// (the determinism contract pinned by internal/experiment/digest_test.go).
// runcache exploits that by keying each result on a canonical digest of
// (salt, kind, config) and memoizing the result as a JSON blob on disk,
// so a warm sweep replays from the cache instead of re-simulating.
//
// The digest deliberately ignores values that do not change the numbers a
// run produces (telemetry sinks, audit hooks, parallelism, the cache
// handle itself); their type says so with a DigestIgnore marker method.
// The salt encodes the code version: any change to simulation semantics
// must bump the salt, which invalidates every cached entry at once (see
// DESIGN.md).
package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"reflect"
	"sort"
	"strconv"
)

// ignorer is the marker a struct type declares (a value-receiver
// DigestIgnore method) to keep every field of that type out of the
// digest, whatever the field is named and however deep it sits. It is for
// observers and execution policy, never for simulation semantics.
var ignorer = reflect.TypeOf((*interface{ DigestIgnore() })(nil)).Elem()

// ignored reports whether struct type t declares the marker itself.
// Embedding promotes methods, so a config that embeds an ignored type
// has DigestIgnore in its method set too; it is told apart by the
// embedded field that already carries it, and is digested as usual
// (minus that field).
func ignored(t reflect.Type) bool {
	if t.Kind() != reflect.Struct || !t.Implements(ignorer) {
		return false
	}
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.Anonymous && f.Type.Implements(ignorer) {
			return false
		}
	}
	return true
}

// Key returns the content address for one run: a hex SHA-256 over the
// salt, the kind, and a canonical encoding of cfg.
//
// The encoding is independent of struct field order (fields are sorted
// by name) and of nil-versus-empty distinctions for slices and maps, so
// a zero-value option and an absent option digest identically. Struct
// type names are NOT part of the encoding — the kind string carries the
// semantic identity of the computation — but the concrete type behind an
// interface value is, since different implementations of e.g. a size
// distribution mean different workloads. Unexported fields and fields of
// a DigestIgnore-marked struct type are skipped. Any other func, chan or
// unsafe.Pointer value panics, at any depth: it cannot be digested, and
// skipping it would let two different runs share one key.
func Key(salt, kind string, cfg any) string {
	h := sha256.New()
	io.WriteString(h, salt)
	h.Write([]byte{0})
	io.WriteString(h, kind)
	h.Write([]byte{0})
	encodeValue(h, reflect.ValueOf(cfg))
	return hex.EncodeToString(h.Sum(nil))
}

// encodeValue writes the canonical encoding of v to w.
func encodeValue(w hash.Hash, v reflect.Value) {
	if !v.IsValid() {
		io.WriteString(w, "nil")
		return
	}
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			// An absent option digests like its zero value, so a
			// config that never mentions a knob shares entries with
			// one that sets it to the default explicitly.
			encodeValue(w, reflect.Zero(v.Type().Elem()))
			return
		}
		encodeValue(w, v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		// The concrete type is semantic: FixedSize(4) and
		// GeometricSize(4) are different workloads.
		elem := v.Elem()
		io.WriteString(w, "(")
		io.WriteString(w, concreteTypeName(elem.Type()))
		io.WriteString(w, ")")
		encodeValue(w, elem)
	case reflect.Struct:
		t := v.Type()
		names := make([]string, 0, t.NumField())
		byName := make(map[string]reflect.Value, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || ignored(f.Type) {
				continue
			}
			names = append(names, f.Name)
			byName[f.Name] = v.Field(i)
		}
		sort.Strings(names)
		io.WriteString(w, "{")
		for _, n := range names {
			io.WriteString(w, n)
			io.WriteString(w, "=")
			encodeValue(w, byName[n])
			io.WriteString(w, ";")
		}
		io.WriteString(w, "}")
	case reflect.Map:
		keys := make([]string, 0, v.Len())
		byKey := make(map[string]reflect.Value, v.Len())
		iter := v.MapRange()
		for iter.Next() {
			ks := scalarString(iter.Key())
			keys = append(keys, ks)
			byKey[ks] = iter.Value()
		}
		sort.Strings(keys)
		io.WriteString(w, "map[")
		for _, k := range keys {
			io.WriteString(w, k)
			io.WriteString(w, ":")
			encodeValue(w, byKey[k])
			io.WriteString(w, ";")
		}
		io.WriteString(w, "]")
	case reflect.Slice, reflect.Array:
		io.WriteString(w, "[")
		for i := 0; i < v.Len(); i++ {
			encodeValue(w, v.Index(i))
			io.WriteString(w, ";")
		}
		io.WriteString(w, "]")
	case reflect.String, reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		io.WriteString(w, scalarString(v))
	default:
		panic(fmt.Sprintf("runcache: cannot digest %s (kind %s)", v.Type(), v.Kind()))
	}
}

// scalarString renders a scalar value canonically. Floats use the
// shortest representation that round-trips, so equal values always
// encode identically.
func scalarString(v reflect.Value) string {
	switch v.Kind() {
	case reflect.String:
		return strconv.Quote(v.String())
	case reflect.Bool:
		return strconv.FormatBool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.FormatInt(v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.FormatUint(v.Uint(), 10)
	case reflect.Float32:
		return strconv.FormatFloat(v.Float(), 'g', -1, 32)
	case reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case reflect.Complex64, reflect.Complex128:
		return strconv.FormatComplex(v.Complex(), 'g', -1, 128)
	default:
		panic(fmt.Sprintf("runcache: cannot digest %s as a map key or scalar", v.Kind()))
	}
}

// concreteTypeName identifies the dynamic type behind an interface.
func concreteTypeName(t reflect.Type) string {
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	if t.PkgPath() != "" {
		return t.PkgPath() + "." + t.Name()
	}
	return t.String()
}
