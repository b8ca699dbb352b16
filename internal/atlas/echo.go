package atlas

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"time"

	"dynamips/internal/obs"
)

// EchoHeader is the response header carrying the client's publicly visible
// address, as in the RIPE Atlas IP echo measurements (§3.1).
const EchoHeader = "X-Client-IP"

// EchoHandlerObs implements the echo server's HTTP endpoint: it answers
// every GET with the peer address that opened the TCP connection in the
// X-Client-IP header. Every request increments echo_requests on o, and
// unresolvable peers increment echo_errors. A nil observer disables
// accounting.
func EchoHandlerObs(o *obs.Observer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o.Counter("echo_requests").Inc()
		host, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil {
			host = r.RemoteAddr
		}
		addr, err := netip.ParseAddr(host)
		if err != nil {
			o.Counter("echo_errors").Inc()
			http.Error(w, "cannot determine client address", http.StatusInternalServerError)
			return
		}
		w.Header().Set(EchoHeader, addr.Unmap().String())
		w.WriteHeader(http.StatusOK)
	})
}

// EchoServer wraps an http.Server running the echo endpoint.
type EchoServer struct {
	srv  *http.Server
	ln   net.Listener
	addr string
}

// StartEchoServerObs listens on the given address ("127.0.0.1:0" for an
// ephemeral test port) and serves the echo endpoint, with request
// accounting on o, until Close.
func StartEchoServerObs(listen string, o *obs.Observer) (*EchoServer, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("atlas: echo listen: %w", err)
	}
	s := &EchoServer{
		srv: &http.Server{
			Handler: EchoHandlerObs(o),
			// Bound every connection phase so a stalled or malicious
			// client can't pin a goroutine: the echo exchange is a
			// header-only GET, so tight limits are safe.
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      10 * time.Second,
			IdleTimeout:       60 * time.Second,
			MaxHeaderBytes:    1 << 16,
		},
		ln:   ln,
		addr: ln.Addr().String(),
	}
	//lint:ignore goroutines background echo listener joined by EchoServer.Close; serves header-only GETs off the sim path
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the server's listen address.
func (s *EchoServer) Addr() string { return s.addr }

// URL returns the echo endpoint URL.
func (s *EchoServer) URL() string { return "http://" + s.addr + "/" }

// Close shuts the server down with a short default drain.
func (s *EchoServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// Shutdown drains in-flight connections until ctx expires, then force
// closes whatever is left so the listener is always released.
func (s *EchoServer) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if err != nil {
		s.srv.Close() //nolint:errcheck // best-effort after failed drain
	}
	return err
}

// EchoClient is the probe-side measurement: one HTTP GET per invocation,
// returning the echoed public address.
type EchoClient struct {
	// URL is the echo endpoint.
	URL string
	// HTTPClient overrides the default client (tests inject transports
	// or source-address dialers).
	HTTPClient *http.Client
}

// Measure performs one IP echo measurement.
func (c *EchoClient) Measure(ctx context.Context) (netip.Addr, error) {
	hc := c.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Second}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.URL, nil)
	if err != nil {
		return netip.Addr{}, fmt.Errorf("atlas: building echo request: %w", err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return netip.Addr{}, fmt.Errorf("atlas: echo request: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	if resp.StatusCode != http.StatusOK {
		return netip.Addr{}, fmt.Errorf("atlas: echo status %d", resp.StatusCode)
	}
	v := resp.Header.Get(EchoHeader)
	if v == "" {
		return netip.Addr{}, fmt.Errorf("atlas: echo response missing %s", EchoHeader)
	}
	addr, err := netip.ParseAddr(v)
	if err != nil {
		return netip.Addr{}, fmt.Errorf("atlas: parsing echoed address %q: %w", v, err)
	}
	return addr, nil
}
