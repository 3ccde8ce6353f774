// End-to-end coverage of trace-driven workloads over HTTP: a recorded trace
// served from -trace-dir is discoverable in the catalog, runnable by name,
// and a request naming a missing trace file is the client's error (4xx),
// never a mid-job 500.
package server

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/btrace"
	"repro/internal/workloads"
)

// writeTestTrace records leela_17 at the quick scale, long enough for the
// test budgets, into dir/<name>.btr.
func writeTestTrace(t *testing.T, dir, name string) *btrace.Trace {
	t.Helper()
	w, err := workloads.ByName("leela_17", workloads.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := btrace.Record(w.Prog, w.Name, btrace.StepsFor(testWarmup, testInstrs))
	if err != nil {
		t.Fatal(err)
	}
	if err := btrace.WriteFile(filepath.Join(dir, name+".btr"), tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestServeTraceWorkload(t *testing.T) {
	dir := t.TempDir()
	tr := writeTestTrace(t, dir, "leela-e2e")
	_, ts := newTestServer(t, Config{TraceDir: dir})

	// The catalog lists the registered trace as a replay workload.
	resp, body := getBody(t, ts.URL+"/v1/catalog")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("catalog status = %d", resp.StatusCode)
	}
	var c catalog
	if err := json.Unmarshal(body, &c); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, wl := range c.Workloads {
		if wl.Name == "trace:leela-e2e" {
			found = true
			if wl.Suite != workloads.TraceSuite || wl.FrontEnd != "replay" {
				t.Errorf("trace workload listed as suite %q front_end %q", wl.Suite, wl.FrontEnd)
			}
		}
	}
	if !found {
		t.Fatalf("catalog does not list trace:leela-e2e: %s", body)
	}

	// A run request naming the trace replays it end to end; the canonical
	// workload name in the result carries the trace fingerprint.
	req := runRequest()
	req.Workload = "trace:leela-e2e"
	req.BR = ""
	st := submit(t, ts, req, http.StatusAccepted)
	if st = await(t, ts, st.ID); st.State != StateDone {
		t.Fatalf("trace job finished %s (%s)", st.State, st.Error)
	}
	resp, body = getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d (body %s)", resp.StatusCode, body)
	}
	var rr RunResult
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	wantName := "trace:leela-e2e@" + btrace.Fingerprint(tr.Encode())
	if rr.Result.Workload != wantName {
		t.Errorf("result workload = %q, want %q", rr.Result.Workload, wantName)
	}
	if rr.Request.Workload != wantName {
		t.Errorf("normalized request workload = %q, want %q", rr.Request.Workload, wantName)
	}
	// Retirement can overshoot the budget within the final cycle.
	if rr.Result.Instrs < testInstrs {
		t.Errorf("replayed %d instrs, want >= %d", rr.Result.Instrs, testInstrs)
	}
}

func TestServeTraceRequestErrors(t *testing.T) {
	dir := t.TempDir()
	// A real-looking but absent trace file, and a present-but-corrupt one.
	if err := os.WriteFile(filepath.Join(dir, "corrupt.btr"), []byte("BRSTgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{TraceDir: dir})

	for _, tc := range []struct {
		name     string
		workload string
	}{
		{"unregistered trace name", "trace:does-not-exist"},
		{"corrupt trace file", "trace:corrupt"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := runRequest()
			req.Workload = tc.workload
			req.BR = ""
			resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("submit = %d (body %s), want 400", resp.StatusCode, body)
			}
			var ae apiError
			if err := json.Unmarshal(body, &ae); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(ae.Error, tc.workload) {
				t.Errorf("error %q does not name the workload", ae.Error)
			}
		})
	}

	// A valid trace the server never registered is refused by name, not
	// opened as a path.
	other := t.TempDir()
	writeTestTrace(t, other, "unregistered")
	req := runRequest()
	req.Workload = workloads.TracePrefix + filepath.Join(other, "unregistered.btr")
	req.BR = ""
	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("submit of an unregistered trace path = %d (body %s), want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "not a registered trace name") {
		t.Errorf("unregistered trace path refused for another reason: %s", body)
	}

	// Figures aggregate the built-in suites; trace workloads are rejected.
	fig := figureRequest("10")
	fig.Workloads = []string{"trace:leela-e2e"}
	resp, body = postJSON(t, ts.URL+"/v1/jobs", fig)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("figure submit = %d (body %s), want 400", resp.StatusCode, body)
	}
}
