package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// ServeDebug starts an HTTP debug server on addr (e.g. ":6060") serving
// net/http/pprof under /debug/pprof/ and the registry in Prometheus text
// format under /metrics. It binds synchronously, so a bad address fails
// fast, then serves in a background goroutine. The bound address is
// returned (useful with ":0") together with a close function that drains
// the server; serve failures are counted in the registry's
// obs_debug_serve_errors_total counter rather than silently dropped.
func ServeDebug(addr string, r *Registry) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: debug server: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		if err := WritePrometheus(w, r); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			r.Counter("obs_debug_serve_errors_total").Inc()
		}
	}()
	closeFn := func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		<-done
	}
	return ln.Addr().String(), closeFn, nil
}
