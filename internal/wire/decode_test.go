package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"

	"spire/internal/core"
)

// referenceDecode is the estimate decoder serve and route used before
// DecodeEstimate existed, kept verbatim as the differential reference:
// SPB1 by Content-Type, otherwise a streaming json.Decoder followed by a
// Token() == io.EOF check that rejects trailing data.
func referenceDecode(body []byte, contentType string) (*EstimateRequest, error) {
	if IsBinMedia(contentType) {
		return DecodeEstimateRequest(body)
	}
	var req EstimateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data after JSON body")
	}
	return &req, nil
}

// sameRequest compares two decoded requests. JSON cannot carry
// non-finite floats, so JSON requests compare with reflect.DeepEqual
// (nil vs empty slices included); SPB1 requests may carry NaN payloads,
// so they compare by their canonical re-encoding, bit for bit.
func sameRequest(a, b *EstimateRequest, bin bool) bool {
	if bin {
		return bytes.Equal(AppendEstimateRequest(nil, a), AppendEstimateRequest(nil, b))
	}
	return reflect.DeepEqual(a, b)
}

// bothWays is one request whose JSON and SPB1 encodings must decode to
// equal values: finite floats only, since JSON has no NaN or Inf.
func bothWays() *EstimateRequest {
	return &EstimateRequest{
		Samples: []core.Sample{
			{Metric: "cycles", T: 1.5, W: 3e9, M: 0.25},
			{Metric: "instructions", T: 1.5, W: 4.2e9, M: 1.75, Window: 1},
			{Metric: "llc-misses", T: 2, W: 1e-3, M: 7, Window: -3},
		},
		Top:     2,
		Workers: 3,
		Sched:   schedFixture(),
	}
}

// decodeSeeds spans the accept/reject boundary of both encodings.
func decodeSeeds() []struct {
	body []byte
	ct   string
} {
	const js = "application/json"
	req := bothWays()
	asJSON, _ := json.Marshal(req)
	asBin := AppendEstimateRequest(nil, req)
	flat := AppendEstimateRequest(nil, &EstimateRequest{Top: 5, Samples: sampleSet()})
	return []struct {
		body []byte
		ct   string
	}{
		// Valid JSON, with and without optional fields and content type.
		{asJSON, js},
		{[]byte(`{"samples":[{"metric":"cycles","t":1,"w":2,"m":3}]}`), ""},
		{[]byte(`{"samples":[],"top":0}`), js},
		{[]byte(`null`), js},
		// Unknown fields are tolerated.
		{[]byte(`{"samples":[{"metric":"a","t":1,"w":1,"m":1,"extra":true}],"future":{"x":[1,2]}}`), js},
		// Trailing whitespace is fine; trailing data is not.
		{[]byte("{\"samples\":[]}\n\t \r\n"), js},
		{[]byte(`{"samples":[]} {}`), js},
		{[]byte(`{"samples":[]}]`), js},
		{[]byte(`{"samples":[]}x`), js},
		// Truncated and empty.
		{asJSON[:len(asJSON)/2], js},
		{[]byte(`{"samples":[{"metric":"a"`), js},
		{nil, js},
		{[]byte("   "), js},
		// Wrong types.
		{[]byte(`{"samples":{"metric":"a"}}`), js},
		{[]byte(`{"samples":[],"top":"3"}`), js},
		{[]byte(`{"samples":[{"metric":1,"t":"x"}]}`), js},
		{[]byte(`{"samples":[],"top":1.5}`), js},
		{[]byte(`[1,2,3]`), js},
		{[]byte(`"samples"`), js},
		// SPB1: valid, truncated, with Content-Type parameters, and a
		// binary body mislabeled as JSON.
		{asBin, ContentTypeBin},
		{flat, ContentTypeBin},
		{asBin[:len(asBin)-3], ContentTypeBin},
		{asBin, ContentTypeBin + "; charset=binary"},
		{asBin, " " + ContentTypeBin + " ;v=1"},
		{asBin, js},
		// JSON mislabeled as SPB1.
		{asJSON, ContentTypeBin},
	}
}

// FuzzDecodeEstimate pins DecodeEstimate to the pre-change decoder: for
// any body and Content-Type, both accept or both reject, and accepted
// bodies decode to equal requests.
func FuzzDecodeEstimate(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add(s.body, s.ct)
	}
	f.Fuzz(func(t *testing.T, body []byte, ct string) {
		got, err := DecodeEstimate(body, ct)
		want, werr := referenceDecode(body, ct)
		if (err == nil) != (werr == nil) {
			t.Fatalf("DecodeEstimate err = %v, reference err = %v", err, werr)
		}
		if err == nil && !sameRequest(got, want, IsBinMedia(ct)) {
			t.Fatalf("decoded %+v, reference %+v", got, want)
		}
	})
}

// TestDecodeEstimateEncodingsAgree decodes one request from its JSON and
// its SPB1 encoding: the single schema must give equal values.
func TestDecodeEstimateEncodingsAgree(t *testing.T) {
	want := bothWays()
	asJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := DecodeEstimate(asJSON, "application/json")
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := DecodeEstimate(AppendEstimateRequest(nil, want), ContentTypeBin+"; q=1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSON, want) || !reflect.DeepEqual(fromBin, want) {
		t.Fatalf("encodings disagree:\n json %+v\n spb1 %+v\n want %+v", fromJSON, fromBin, want)
	}
}

// TestDecodeEstimateJSONFieldOrder pins the JSON bytes of the schema:
// field order samples, top, workers, sched, optional fields omitted when
// zero — the encoding clients and the benchmark bodies have always sent.
func TestDecodeEstimateJSONFieldOrder(t *testing.T) {
	got, err := json.Marshal(&EstimateRequest{
		Samples: []core.Sample{{Metric: "a", T: 1, W: 2, M: 3}},
		Top:     1,
		Workers: 2,
		Sched:   []core.SchedEvent{{Time: 1, Class: "sched.switch_in", Thread: 4, Waker: -1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"samples":[{"metric":"a","t":1,"w":2,"m":3}],"top":1,"workers":2,` +
		`"sched":[{"time":1,"class":"sched.switch_in","thread":4,"waker":-1}]}`
	if string(got) != want {
		t.Fatalf("JSON encoding\n got %s\nwant %s", got, want)
	}
	flat, _ := json.Marshal(&EstimateRequest{})
	if string(flat) != `{"samples":null}` {
		t.Fatalf("zero request encodes as %s", flat)
	}
}
