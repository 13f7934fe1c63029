package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperprov/internal/admission"
	"hyperprov/internal/engine"
)

// shedConfig bounds the expensive class to one in-flight request with
// no queue, with a short window so tests can watch the state recover.
func shedConfig() admission.Config {
	cfg := admission.Unlimited()
	cfg.Classes[admission.ClassExpensive] = admission.ClassConfig{MaxInFlight: 1}
	cfg.Window = 250 * time.Millisecond
	return cfg
}

func errCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	var body struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	return body.Error.Code
}

// TestOverloadShedsTyped drives the server into overload on the
// expensive class and asserts the contract: saturated expensive work
// answers typed 429/503 envelopes with Retry-After, cheap point reads
// keep answering 200 throughout, readyz flips to 503 overloaded, and
// the state recovers once the pressure is gone.
func TestOverloadShedsTyped(t *testing.T) {
	e := figure1Engine(t, engine.ModeNormalForm)
	srv := New(e, WithAdmission(shedConfig()), WithLogf(t.Logf))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Occupy the expensive class's only slot, as a long what-if would.
	release, err := srv.Admission().Admit(context.Background(), admission.ClassExpensive)
	if err != nil {
		t.Fatal(err)
	}

	// The saturated class sheds with the typed 429 and a Retry-After.
	resp, err := client.Get(ts.URL + "/v1/db")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated /v1/db answered %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response has no Retry-After header")
	}
	if code := errCode(t, resp); code != codeQueueFull {
		t.Fatalf("shed code %q, want %q", code, codeQueueFull)
	}

	// The controller is now overloaded: further expensive work sheds
	// outright with 503 overloaded.
	resp, err = client.Get(ts.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded /v1/snapshot answered %d, want 503", resp.StatusCode)
	}
	if code := errCode(t, resp); code != codeOverloaded {
		t.Fatalf("overload shed code %q, want %q", code, codeOverloaded)
	}

	// Cheap point reads keep answering on their own healthy class.
	resp, err = client.Get(ts.URL + "/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/schema answered %d under overload, want 200", resp.StatusCode)
	}
	resp = postJSON(t, client, ts.URL+"/v1/annotation", map[string]any{
		"rel": "Products", "tuple": []any{"Tennis Racket", "Sport", 70},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/annotation answered %d under overload, want 200", resp.StatusCode)
	}

	// Liveness and readiness split: healthz stays 200 (the process is
	// fine), readyz answers 503 overloaded with Retry-After (drain me).
	resp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz answered %d under overload, want 200", resp.StatusCode)
	}
	resp, err = client.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz answered %d under overload, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("overloaded readyz has no Retry-After header")
	}
	resp.Body.Close()

	// Stats expose the shed counters and the folded health state.
	resp, err = client.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[map[string]any](t, resp)
	if got := stats["health"]; got != "overloaded" {
		t.Fatalf("stats health %v, want overloaded", got)
	}
	// admission.shed is the controller's own total: above 0 after the
	// sheds, and the sum of every class's three shed counters.
	adm, _ := stats["admission"].(map[string]any)
	shed, _ := adm["shed"].(float64)
	if shed <= 0 {
		t.Fatalf("admission.shed = %v after sheds, want > 0 (admission %v)", adm["shed"], adm)
	}
	var perClass float64
	for name, c := range adm["classes"].(map[string]any) {
		cs := c.(map[string]any)
		for _, k := range []string{"shed_queue_full", "shed_deadline", "shed_overload"} {
			v, ok := cs[k].(float64)
			if !ok {
				t.Fatalf("class %s has no %s: %v", name, k, cs)
			}
			perClass += v
		}
	}
	if shed != perClass {
		t.Fatalf("admission.shed = %v, the classes' sheds sum to %v", shed, perClass)
	}

	// Pressure gone: the state decays back to ok within the window.
	release()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := client.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz still %d long after release", resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, err = client.Get(ts.URL + "/v1/db")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered /v1/db answered %d, want 200", resp.StatusCode)
	}
}

// TestDeadlineAwareShed: a request whose remaining deadline cannot
// cover the minimum service time is shed the moment it would queue —
// it never occupies a queue slot just to time out.
func TestDeadlineAwareShed(t *testing.T) {
	cfg := admission.Unlimited()
	cfg.Classes[admission.ClassWrite] = admission.ClassConfig{MaxInFlight: 1, QueueDepth: 8}
	cfg.MinService = time.Minute // nothing can afford service within the 100ms timeout below
	e := figure1Engine(t, engine.ModeNormalForm)
	srv := New(e, WithAdmission(cfg), WithTimeout(100*time.Millisecond), WithLogf(t.Logf))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	release, err := srv.Admission().Admit(context.Background(), admission.ClassWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	resp, err := ts.Client().Post(ts.URL+"/v1/ingest", "text/plain", strings.NewReader("BEGIN x;\nCOMMIT;\n"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline-doomed ingest answered %d, want 503", resp.StatusCode)
	}
	if code := errCode(t, resp); code != codeShedDeadline {
		t.Fatalf("shed code %q, want %q", code, codeShedDeadline)
	}
	st := srv.Admission().StatsSnapshot().Classes[admission.ClassWrite.String()]
	if st.ShedDeadline == 0 {
		t.Fatalf("write class counters %+v, want a deadline shed", st)
	}
}

// TestQueueAdmitsOnRelease: at the limit a request queues FIFO and is
// admitted when the slot frees — pressure delays work, it does not
// lose it.
func TestQueueAdmitsOnRelease(t *testing.T) {
	cfg := admission.Unlimited()
	cfg.Classes[admission.ClassWrite] = admission.ClassConfig{MaxInFlight: 1, QueueDepth: 8, QueueWait: 5 * time.Second}
	e := figure1Engine(t, engine.ModeNormalForm)
	srv := New(e, WithAdmission(cfg), WithLogf(t.Logf))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	release, err := srv.Admission().Admit(context.Background(), admission.ClassWrite)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/ingest", "text/plain", strings.NewReader("BEGIN q;\nCOMMIT;\n"))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	// Wait until the request is actually queued, then free the slot.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Admission().StatsSnapshot().Classes[admission.ClassWrite.String()].Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ingest never queued")
		}
		time.Sleep(2 * time.Millisecond)
	}
	release()
	if got := <-done; got != http.StatusOK {
		t.Fatalf("queued ingest answered %d, want 200 after release", got)
	}
}

// TestBodyTooLarge: every body-accepting endpoint answers the typed
// 413 envelope when the request exceeds the configured cap, instead of
// a generic 400 or a hung connection.
func TestBodyTooLarge(t *testing.T) {
	e := figure1Engine(t, engine.ModeNormalForm)
	srv := New(e, WithMaxBodyBytes(1024), WithLogf(t.Logf))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	big := strings.Repeat("x", 4096)
	check := func(name string, resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s answered %d, want 413", name, resp.StatusCode)
		}
		if code := errCode(t, resp); code != codeBodyTooLarge {
			t.Fatalf("%s code %q, want %q", name, code, codeBodyTooLarge)
		}
	}

	resp, err := client.Post(ts.URL+"/v1/ingest", "text/plain", strings.NewReader("BEGIN a;\n-- "+big+"\nCOMMIT;\n"))
	check("ingest", resp, err)

	resp, err = client.Post(ts.URL+"/v1/annotation", "application/json",
		strings.NewReader(fmt.Sprintf(`{"rel":%q,"tuple":["a","b",1]}`, big)))
	check("annotation", resp, err)

	resp, err = client.Post(ts.URL+"/v1/snapshot", "application/octet-stream", strings.NewReader(big))
	check("snapshot_load", resp, err)

	resp, err = client.Post(ts.URL+"/v1/subscribe", "application/json",
		strings.NewReader(fmt.Sprintf(`{"subscriptions":[{"id":%q,"kind":"tuples"}]}`, big)))
	check("subscribe", resp, err)

	// Under the cap everything still works.
	resp, err = client.Post(ts.URL+"/v1/ingest", "text/plain", strings.NewReader("BEGIN ok;\nCOMMIT;\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small ingest answered %d, want 200", resp.StatusCode)
	}
}

// TestStalledSubscriberUnderShedding: a subscriber that stops reading
// must never block the write path, even while the write class is under
// admission pressure — the manager drops its frames and schedules a
// resync instead. The test fails by deadlock (or -race) if either
// property breaks.
func TestStalledSubscriberUnderShedding(t *testing.T) {
	cfg := admission.Unlimited()
	cfg.Classes[admission.ClassWrite] = admission.ClassConfig{MaxInFlight: 1, QueueDepth: 32, QueueWait: 10 * time.Second}
	e := figure1Engine(t, engine.ModeNormalForm)
	srv := New(e, WithAdmission(cfg), WithLogf(t.Logf))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Open a subscription with a tiny buffer and read only the ack —
	// then stall, never reading another frame.
	spec := url.QueryEscape(`{"id":"w","kind":"watch","rel":"Products","match":[null,null,null]}`)
	resp, err := client.Get(ts.URL + "/v1/subscribe?buffer=1&spec=" + spec)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe answered %d", resp.StatusCode)
	}
	ack := make([]byte, 1)
	if _, err := resp.Body.Read(ack); err != nil {
		t.Fatalf("reading ack: %v", err)
	}

	// Hammer the bounded write class from several goroutines. Every
	// ingest must complete (queued, not lost) within the test timeout;
	// a write path blocked on the stalled subscriber would hang here.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				log := fmt.Sprintf("BEGIN t%d_%d;\nUPDATE Products SET Price = %d WHERE Category = 'Sport';\nCOMMIT;\n", g, i, 100+g*10+i)
				resp, err := client.Post(ts.URL+"/v1/ingest", "text/plain", strings.NewReader(log))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("ingest %d/%d answered %d", g, i, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The stalled connection fell behind: once the dispatcher has folded
	// the last commit, frames have been dropped on it rather than the
	// committers blocked. (Resyncs counts resync frames served, and a
	// reader that never reads pulls none.)
	srv.Subscriptions().Sync()
	if st := srv.Subscriptions().StatsSnapshot(); st.FrameDrops == 0 {
		t.Fatalf("stalled subscriber dropped no frame: %+v", st)
	}
}
