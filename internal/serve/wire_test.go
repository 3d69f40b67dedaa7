package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"kamsta"
)

// reflectRequest is the POST body with its edges as a plain []wireEdge,
// decoded by encoding/json's reflection alone: the reference wireEdges is
// held to. Its fields and tags are wireRequest's
// (TestReflectRequestMirrorsWire).
type reflectRequest struct {
	Tenant     string     `json:"tenant"`
	Algorithm  string     `json:"algorithm,omitempty"`
	Seed       uint64     `json:"seed,omitempty"`
	DeadlineMS int64      `json:"deadline_ms,omitempty"`
	PEs        int        `json:"pes,omitempty"`
	NoBatch    bool       `json:"no_batch,omitempty"`
	Spec       *wireSpec  `json:"spec,omitempty"`
	Edges      []wireEdge `json:"edges,omitempty"`
	File       string     `json:"file,omitempty"`
	FileFormat string     `json:"file_format,omitempty"`
}

func TestReflectRequestMirrorsWire(t *testing.T) {
	w, r := reflect.TypeFor[wireRequest](), reflect.TypeFor[reflectRequest]()
	if w.NumField() != r.NumField() {
		t.Fatalf("wireRequest has %d fields, reflectRequest %d", w.NumField(), r.NumField())
	}
	for i := range w.NumField() {
		wf, rf := w.Field(i), r.Field(i)
		if wf.Name != rf.Name || wf.Tag != rf.Tag || (wf.Type != rf.Type && wf.Name != "Edges") {
			t.Fatalf("field %d: wireRequest %s %s %s, reflectRequest %s %s %s",
				i, wf.Name, wf.Type, wf.Tag, rf.Name, rf.Type, rf.Tag)
		}
	}
}

// reflectEdges converts a decoded []wireEdge into input edges, refusing a
// weight over 2^32−1.
func reflectEdges(wide []wireEdge) ([]kamsta.InputEdge, error) {
	if wide == nil {
		return nil, nil
	}
	edges := make([]kamsta.InputEdge, len(wide))
	for i, e := range wide {
		if e[2] > 1<<32-1 {
			return nil, fmt.Errorf("%w: edge weight %d overflows uint32", ErrBadRequest, e[2])
		}
		edges[i] = kamsta.InputEdge{U: e[0], V: e[1], W: uint32(e[2])}
	}
	return edges, nil
}

// decodeBody decodes a POST body as handleSubmit does, then converts it.
func decodeBody(body []byte) (Request, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var wr wireRequest
	if err := dec.Decode(&wr); err != nil {
		return Request{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return wr.toRequest()
}

// decodeBodyReflect is decodeBody with the reference edge decoding.
func decodeBodyReflect(body []byte) (Request, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var rr reflectRequest
	if err := dec.Decode(&rr); err != nil {
		return Request{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	wr := wireRequest{Tenant: rr.Tenant, Algorithm: rr.Algorithm, Seed: rr.Seed, DeadlineMS: rr.DeadlineMS,
		PEs: rr.PEs, NoBatch: rr.NoBatch, Spec: rr.Spec, File: rr.File, FileFormat: rr.FileFormat}
	req, err := wr.toRequest()
	if err != nil {
		return Request{}, err
	}
	if req.Edges, err = reflectEdges(rr.Edges); err != nil {
		return Request{}, err
	}
	return req, nil
}

// wireEdgeSeeds are FuzzWireEdges' committed inputs, each used as an edges
// value and as a whole body: the list clients send, and every shape the
// one-pass scan hands to encoding/json.
var wireEdgeSeeds = []string{
	`[[1,2,3],[2,3,4]]`,
	`[[18446744073709551615,1,4294967295]]`,
	`[[1,2]]`,
	`[[1,2,3,4]]`,
	`[[null,1,2]]`,
	`[null,[1,2,3]]`,
	`[[1e3,2,3]]`,
	`[[1.0,2,3]]`,
	`[[-1,2,3]]`,
	`[[01,2,3]]`,
	`[[18446744073709551616,2,3]]`,
	`[[1,2,4294967296]]`,
	`[["1",2,3]]`,
	`null`,
	`[]`,
	`[[]]`,
	`[[[],1,2]]`,
	"[ [1,\t2 ,3]\r\n, [4,5,6] ]",
	`[[1,2,3],[4,5`,
	`{"tenant":"t","edges":[[1,2,3]]}`,
	`{"tenant":"t","edges":[[1,2,3],[4,5,6]],"edges":[[7,8,9]],"edges":[[1,1,1],[null,2,3]]}`,
	`{"tenant":"t","edges":[[1,2,4294967296]],"edges":[[1,2,3]]}`,
	`{"tenant":"t","edges":[[1,2,3]],"edges":null}`,
	`{"tenant":"t","edges":[[1,2,3]],"frobnicate":1}`,
	`{"tenant":"t","spec":{"family":"gnm","n":10,"m":20}}`,
}

// FuzzWireEdges holds wireEdges to encoding/json into a []wireEdge: on any
// bytes as the edges value, as a whole POST body, and decoded alone, both
// accept or both refuse (a body as ErrBadRequest), an accepted input gives
// the same Request or edges, and those edges encode to the reference's
// bytes and decode back to themselves.
func FuzzWireEdges(f *testing.F) {
	for _, s := range wireEdgeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		asValue := append(append([]byte(`{"tenant":"t","edges":`), data...), '}')
		for _, body := range [][]byte{asValue, data} {
			got, gotErr := decodeBody(body)
			want, wantErr := decodeBodyReflect(body)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && !errors.Is(gotErr, ErrBadRequest)) {
				t.Fatalf("body %q: error %v, reference %v", body, gotErr, wantErr)
			}
			if gotErr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("body %q: request %+v, reference %+v", body, got, want)
			}
		}

		var e wireEdges
		var wide []wireEdge
		var got, want []kamsta.InputEdge
		gotErr, wantErr := json.Unmarshal(data, &e), json.Unmarshal(data, &wide)
		if gotErr == nil {
			got, gotErr = edgesOf(&e)
		}
		if wantErr == nil {
			want, wantErr = reflectEdges(wide)
		}
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: edges %v (%v), reference %v (%v)", data, got, gotErr, want, wantErr)
		}
		if gotErr != nil || got == nil { // a nil list is never encoded
			return
		}
		enc, err := (&wireEdges{edges: got}).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if ref, _ := json.Marshal(toWide(got)); !bytes.Equal(enc, ref) {
			t.Fatalf("%v encodes as %s, reference %s", got, enc, ref)
		}
		var back wireEdges
		if err := back.UnmarshalJSON(enc); err != nil {
			t.Fatalf("%s: %v", enc, err)
		}
		if again, _ := edgesOf(&back); !reflect.DeepEqual(again, got) {
			t.Fatalf("%s decodes to %v, encoded %v", enc, again, got)
		}
	})
}

// TestScanEdgesSizesFromLength: a value full of brackets that is no edge
// list (here inside a string) does not size the list by its bracket count.
func TestScanEdgesSizesFromLength(t *testing.T) {
	data := []byte(`[["` + strings.Repeat("[", 1<<20) + `"]]`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, ok := scanEdges(data); ok {
		t.Fatal("a string scanned as an edge list")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("scanning %d bytes allocated %d", len(data), grew)
	}
}

// edgesOf is the edge list toRequest makes of e.
func edgesOf(e *wireEdges) ([]kamsta.InputEdge, error) {
	req, err := wireRequest{Edges: e}.toRequest()
	return req.Edges, err
}

func toWide(edges []kamsta.InputEdge) []wireEdge {
	if edges == nil {
		return nil
	}
	wide := make([]wireEdge, len(edges))
	for i, e := range edges {
		wide[i] = wireEdge{e.U, e.V, uint64(e.W)}
	}
	return wide
}

// TestSubmitBodyMatchesReflect: the body Client.Submit posts is the bytes
// encoding/json writes for reflectRequest, with edges, without, with an
// empty list (omitted) and with a spec.
func TestSubmitBodyMatchesReflect(t *testing.T) {
	bodies := make(chan []byte, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		bodies <- b
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":1,"status":"queued"}`)
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	spec := &kamsta.GraphSpec{Family: kamsta.GNM, N: 10, M: 20, Seed: 3}
	for _, req := range []Request{
		{Tenant: "web", Edges: testEdges(3, 20, 50), Deadline: 1500 * time.Microsecond, PEs: 2},
		{Tenant: "web", Edges: []kamsta.InputEdge{{U: 1<<64 - 1, V: 1, W: 1<<32 - 1}}, NoBatch: true},
		{Tenant: "web", Edges: []kamsta.InputEdge{}, Algorithm: kamsta.AlgBoruvka},
		{Tenant: "web", Spec: spec, Seed: 9},
	} {
		if _, err := c.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		rr := reflectRequest{Tenant: req.Tenant, Algorithm: string(req.Algorithm), Seed: req.Seed,
			DeadlineMS: (req.Deadline + time.Millisecond - 1).Milliseconds(), PEs: req.PEs, NoBatch: req.NoBatch}
		if req.Spec != nil {
			rr.Spec = &wireSpec{Family: req.Spec.Family.Name(), N: req.Spec.N, M: req.Spec.M, Seed: req.Spec.Seed}
		}
		rr.Edges = toWide(req.Edges)
		want, _ := json.Marshal(rr)
		if got := <-bodies; !bytes.Equal(got, want) {
			t.Fatalf("Submit posted\n%s\nreference\n%s", got, want)
		}
	}
}
