package cli

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"
)

// Serve runs handler on ln until ctx is cancelled, then shuts the
// daemon down in order: stopIntake (when non-nil) refuses new work,
// the HTTP server stops accepting and gives in-flight requests up to
// drainTimeout to finish (closing them if they overrun), and drain
// settles the admitted work under the same deadline. Request contexts
// derive from ctx. If the listener fails first, drain still runs and
// the listener's error is returned. prog prefixes the progress lines
// on stderr.
func Serve(ctx context.Context, prog string, ln net.Listener, handler http.Handler,
	drainTimeout time.Duration, stopIntake func(), drain func(context.Context) error) error {
	srv := &http.Server{
		Handler:     handler,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if derr := drain(drainCtx); derr != nil {
			return errors.Join(err, fmt.Errorf("drain: %w", derr))
		}
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "%s: shutting down, draining for up to %s\n", prog, drainTimeout)
	if stopIntake != nil {
		stopIntake()
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		srv.Close()
	}
	<-serveErr
	if err := drain(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: drained cleanly\n", prog)
	return nil
}
