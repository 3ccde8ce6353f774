// Fuzz coverage for brserve's request boundary: every submission body flows
// through DecodeRequest then NormalizeRequest, so arbitrary bytes must come
// back as an error, never a panic, and an accepted request must already be
// canonical — normalizing it again, directly or after a JSON round trip,
// yields the same request and the same job ID.
package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"version":1,"kind":"run","workload":"mcf_17"}`))
	f.Add([]byte(`{"version":1,"kind":"run","workload":"bfs","predictor":"tage80","br":"mini","warmup":5,"instrs":9}`))
	f.Add([]byte(`{"version":1,"kind":"figure","figure":"13","sweep_workloads":["mcf_17"],"sweep_instrs":100}`))
	f.Add([]byte(`{"version":1,"kind":"figure","figure":"10","workloads":["leela_17","bfs"]}`))
	f.Add([]byte(`{"version":2,"kind":"sweep"}`))
	f.Add([]byte(`{"version":1,"kind":"run","workload":"mcf_17","warmup":18446744073709551615,"instrs":1}`))
	f.Add([]byte(`{"version":1,"kind":"run","workload":"trace:/dev/zero"}`))
	f.Add([]byte(`{`))
	d := testDefaults()
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeRequest(bytes.NewReader(b))
		if err != nil {
			return
		}
		norm, err := NormalizeRequest(req, d)
		if err != nil {
			return
		}
		again, err := NormalizeRequest(norm, d)
		if err != nil {
			t.Fatalf("normalized request rejected on renormalization: %v\n%+v", err, norm)
		}
		if !reflect.DeepEqual(norm, again) || fingerprint(norm) != fingerprint(again) {
			t.Fatalf("normalization is not idempotent:\nfirst:  %+v\nsecond: %+v", norm, again)
		}
		blob, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := DecodeRequest(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("normalized request does not decode: %v\n%s", err, blob)
		}
		renorm, err := NormalizeRequest(wire, d)
		if err != nil {
			t.Fatalf("normalized request rejected after a JSON round trip: %v\n%s", err, blob)
		}
		if fingerprint(renorm) != fingerprint(norm) {
			t.Fatalf("JSON round trip changed the job ID:\nbefore: %+v\nafter:  %+v", norm, renorm)
		}
	})
}
