package cli

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pab/internal/testutil"
)

// events is a goroutine-safe log of lifecycle steps.
type events struct {
	mu   sync.Mutex
	list []string
}

func (e *events) add(s string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.list = append(e.list, s)
}

func (e *events) String() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return strings.Join(e.list, ",")
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestServeDrainsInFlightRequest cancels the context while a request
// is being handled: stopIntake runs first, the request still completes
// with 200, and only then does drain run.
func TestServeDrainsInFlightRequest(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	ln := listen(t)
	var ev events
	started := make(chan struct{})
	intakeStopped := make(chan struct{})
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-intakeStopped
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok")
		ev.add("handled")
	})
	stopIntake := func() {
		ev.add("stopIntake")
		close(intakeStopped)
	}
	drain := func(context.Context) error {
		ev.add("drain")
		return nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, "test", ln, handler, 5*time.Second, stopIntake, drain) }()

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	type reply struct {
		status int
		body   string
		err    error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := client.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		replied <- reply{status: resp.StatusCode, body: string(body), err: err}
	}()

	<-started
	cancel()
	r := <-replied
	if r.err != nil || r.status != http.StatusOK || r.body != "ok" {
		t.Fatalf("in-flight request: status %d body %q err %v, want 200 ok", r.status, r.body, r.err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v, want nil", err)
	}
	if got, want := ev.String(), "stopIntake,handled,drain"; got != want {
		t.Errorf("lifecycle order %s, want %s", got, want)
	}
}

// TestServeDrainError returns the drain failure wrapped as "drain:".
// stopIntake may be nil.
func TestServeDrainError(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Serve(ctx, "test", listen(t), http.NotFoundHandler(), time.Second, nil,
		func(context.Context) error { return boom })
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "drain: ") {
		t.Errorf("Serve returned %v, want drain: boom", err)
	}
}

// TestServeListenerClosed closes the listener under a live context:
// Serve still drains, then returns the listener's error.
func TestServeListenerClosed(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	ln := listen(t)
	drained := false
	drain := func(context.Context) error {
		drained = true
		return nil
	}
	served := make(chan error, 1)
	go func() {
		served <- Serve(context.Background(), "test", ln, http.NotFoundHandler(), time.Second, nil, drain)
	}()
	ln.Close()
	err := <-served
	if !errors.Is(err, net.ErrClosed) {
		t.Errorf("Serve returned %v, want the listener's net.ErrClosed", err)
	}
	if !drained {
		t.Error("Serve returned without draining")
	}
}
