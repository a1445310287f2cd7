package beacon

import (
	"crypto/subtle"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// AuthStats wraps a collection server so that read endpoints (stats,
// breakdowns, time series) require an operator bearer token, while the
// ingestion endpoints stay open — beacons come from anonymous browsers
// that cannot hold secrets, but aggregated campaign performance is
// business-sensitive.
//
// Accepted credentials: "Authorization: Bearer <key>" or "?key=<key>".
// With no keys configured the wrapper is a transparent pass-through.
func AuthStats(next http.Handler, keys ...string) http.Handler {
	if len(keys) == 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !statsPath(r.URL.Path) || authorized(r, keys) {
			next.ServeHTTP(w, r)
			return
		}
		w.Header().Set("WWW-Authenticate", `Bearer realm="qtag-stats"`)
		httpError(w, http.StatusUnauthorized, "stats endpoints require an operator key")
	})
}

func statsPath(path string) bool {
	switch {
	case path == "/v1/stats",
		strings.HasPrefix(path, "/v1/campaigns/"),
		path == "/v1/breakdown",
		path == "/v1/timeseries":
		return true
	default:
		return false
	}
}

func authorized(r *http.Request, keys []string) bool {
	presented := r.URL.Query().Get("key")
	if h := r.Header.Get("Authorization"); strings.HasPrefix(h, "Bearer ") {
		presented = strings.TrimPrefix(h, "Bearer ")
	}
	if presented == "" {
		return false
	}
	for _, k := range keys {
		if subtle.ConstantTimeCompare([]byte(presented), []byte(k)) == 1 {
			return true
		}
	}
	return false
}

// RateLimiter applies a per-client token bucket to ingestion requests
// (POST and pixel GET on /v1/events), shielding the collector from
// misbehaving tags or flooding. Read endpoints are not limited.
//
// Buckets are keyed by client IP. The zero value is invalid; use
// NewRateLimiter.
type RateLimiter struct {
	next    http.Handler
	rate    float64 // tokens per second
	burst   float64
	now     func() time.Time
	mu      sync.Mutex
	buckets map[string]*bucket

	// lastSweep bounds the bucket map: idle entries are dropped
	// periodically so hostile clients cannot grow memory unboundedly.
	lastSweep time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter wraps next, allowing each client IP ratePerSecond
// sustained ingestion requests with the given burst. A non-positive rate
// disables limiting.
func NewRateLimiter(next http.Handler, ratePerSecond, burst float64) *RateLimiter {
	return &RateLimiter{
		next:    next,
		rate:    ratePerSecond,
		burst:   burst,
		now:     time.Now,
		buckets: map[string]*bucket{},
	}
}

// SetClock overrides the limiter's time source (tests).
func (l *RateLimiter) SetClock(now func() time.Time) { l.now = now }

// ServeHTTP implements http.Handler.
func (l *RateLimiter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if l.rate <= 0 || r.URL.Path != "/v1/events" {
		l.next.ServeHTTP(w, r)
		return
	}
	if !l.allow(clientIP(r)) {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "ingestion rate limit exceeded")
		return
	}
	l.next.ServeHTTP(w, r)
}

func (l *RateLimiter) allow(key string) bool {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if now.Sub(l.lastSweep) > time.Minute {
		l.sweepLocked(now)
	}
	b := l.buckets[key]
	if b == nil {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// sweepLocked drops buckets that have been idle long enough to refill
// completely — they carry no state worth keeping.
func (l *RateLimiter) sweepLocked(now time.Time) {
	l.lastSweep = now
	idle := time.Duration(float64(time.Second) * (l.burst/l.rate + 60))
	for k, b := range l.buckets {
		if now.Sub(b.last) > idle {
			delete(l.buckets, k)
		}
	}
}

func clientIP(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}
