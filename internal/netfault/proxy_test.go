package netfault

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// lineServer answers every GET with the lines sent on its channel, each
// flushed as it comes, until the client goes.
func lineServer(t *testing.T) (string, chan<- string) {
	t.Helper()
	lines := make(chan string, 16)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		for {
			select {
			case <-req.Context().Done():
				return
			case line := <-lines:
				fmt.Fprintln(w, line)
				w.(http.Flusher).Flush()
			}
		}
	}))
	t.Cleanup(ts.Close)
	return ts.URL, lines
}

// bodyServer answers every GET with body.
func bodyServer(t *testing.T, body string) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

func openBody(t *testing.T, l *link, u string) io.ReadCloser {
	t.Helper()
	rc, err := l.open(context.Background(), dialGet(u))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return rc
}

// TestProxyForwards: a healthy link delivers the body as sent.
func TestProxyForwards(t *testing.T) {
	l := newLink()
	body := strings.Repeat("forwarded ", 1000)
	got, err := io.ReadAll(openBody(t, l, bodyServer(t, body)))
	if err != nil || string(got) != body {
		t.Fatalf("read %d bytes, %v; want the %d sent", len(got), err, len(body))
	}
	if st := l.Stats(); st.Opened != 1 || st.Active != 1 || st.Bytes != int64(len(body)) {
		t.Fatalf("stats %+v, want 1 opened and active, %d bytes", st, len(body))
	}
}

// TestProxyLatency: the configured delay shows up in each read.
func TestProxyLatency(t *testing.T) {
	l := newLink()
	l.SetLatency(60*time.Millisecond, 0)
	u, lines := lineServer(t)
	r := bufio.NewReader(openBody(t, l, u))
	for i := 0; i < 2; i++ {
		start := time.Now()
		lines <- "ping"
		if _, err := r.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took < 60*time.Millisecond {
			t.Fatalf("read %d took %v, want ≥ 60ms with 60ms latency", i, took)
		}
	}
}

// TestProxyPartition: a partition silences open connections (no end of
// stream, only a wait) and refuses new opens, a held open answers
// nothing until its context ends, and Heal delivers what was held.
func TestProxyPartition(t *testing.T) {
	l := newLink()
	u, lines := lineServer(t)
	r := bufio.NewReader(openBody(t, l, u))
	lines <- "before"
	if line, err := r.ReadString('\n'); err != nil || line != "before\n" {
		t.Fatalf("read %q, %v", line, err)
	}
	l.Partition()
	lines <- "held"
	got := make(chan string, 1)
	go func() {
		line, err := r.ReadString('\n')
		if err != nil {
			line = err.Error()
		}
		got <- line
	}()
	select {
	case line := <-got:
		t.Fatalf("read %q through a partition", line)
	case <-time.After(150 * time.Millisecond):
	}
	if _, err := l.open(context.Background(), dialGet(u)); !errors.Is(err, errRefused) {
		t.Fatalf("open through a partition: %v, want it refused", err)
	}
	if st := l.Stats(); st.Refused != 1 || st.Opened != 1 {
		t.Fatalf("stats %+v, want 1 refused and 1 opened", st)
	}

	l.HoldOpen()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := l.open(ctx, dialGet(u)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("held open ended with %v, want its context's deadline", err)
	}
	if st := l.Stats(); st.Held != 1 || st.Refused != 1 {
		t.Fatalf("stats %+v, want 1 held and still 1 refused", st)
	}

	l.Heal()
	select {
	case line := <-got:
		if line != "held\n" {
			t.Fatalf("after heal read %q, want the held line", line)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the held line never arrived after the heal")
	}
}

// TestProxyResetAll: ResetAll ends every open connection promptly and
// the link keeps serving new ones; ResetAt ends one after exactly its
// bytes.
func TestProxyResetAll(t *testing.T) {
	l := newLink()
	u, lines := lineServer(t)
	r := bufio.NewReader(openBody(t, l, u))
	lines <- "up"
	if _, err := r.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	l.ResetAll()
	if _, err := r.ReadString('\n'); !errors.Is(err, errCut) {
		t.Fatalf("read after ResetAll: %v, want the reset", err)
	}
	if st := l.Stats(); st.Resets != 1 || st.Active != 0 {
		t.Fatalf("stats %+v, want 1 reset and none active", st)
	}

	l.ResetAt(7)
	got, err := io.ReadAll(openBody(t, l, bodyServer(t, "0123456789")))
	if string(got) != "0123456" || !errors.Is(err, errCut) {
		t.Fatalf("read %q, %v; want 7 bytes, then the reset", got, err)
	}
	if st := l.Stats(); st.Resets != 2 || !reflect.DeepEqual(st.ResetBytes, []int64{3, 7}) {
		t.Fatalf("stats %+v, want 2 resets, after 3 and 7 bytes", st)
	}
	if got, err := io.ReadAll(openBody(t, l, bodyServer(t, "fresh"))); err != nil || string(got) != "fresh" {
		t.Fatalf("after the resets read %q, %v", got, err)
	}
}

// TestProxyBandwidth: a cap stretches a transfer to at least its bytes
// over the rate.
func TestProxyBandwidth(t *testing.T) {
	const rate, size = 64 << 10, 16 << 10
	l := newLink()
	l.SetBandwidth(rate)
	rc := openBody(t, l, bodyServer(t, strings.Repeat("x", size)))
	start := time.Now()
	if n, err := io.Copy(io.Discard, rc); err != nil || n != size {
		t.Fatalf("copied %d bytes, %v", n, err)
	}
	if took, least := time.Since(start), time.Duration(size*int64(time.Second)/rate); took < least {
		t.Fatalf("%d bytes at %d B/s took %v, want at least %v", size, rate, took, least)
	}
}
