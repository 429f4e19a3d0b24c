package rmi

import (
	"time"

	"aspectpar/internal/clock"
)

// Functional construction options for clients and servers: every knob (the
// clock before Listen, the session tag before the first tracked request, the
// codec before the first frame) is fixed at construction, so there is no
// window in which a half-configured client or server is observable.

// Option configures a Client (at Dial) or a Server (at NewServer/Serve).
// Options that only make sense on one side are ignored by the other.
type Option func(*options)

type options struct {
	clk       clock.Clock
	policy    *ReconnectPolicy
	session   string
	codec     Codec
	registry  string
	heartbeat time.Duration
}

func (o *options) apply(opts []Option) {
	for _, opt := range opts {
		if opt != nil {
			opt(o)
		}
	}
}

// WithClock installs the time source — reconnect backoff on a client; drain
// graces and injected delays on a server. nil keeps the wall clock.
func WithClock(clk clock.Clock) Option {
	return func(o *options) { o.clk = clk }
}

// WithReconnect installs a client's Reconnect backoff schedule.
func WithReconnect(p ReconnectPolicy) Option {
	return func(o *options) { o.policy = &p }
}

// WithSession tags a client's tracked requests (InvokeSeq, SendSeq) with a
// stable identity, arming the server's dedupe and stale-replay guards. The
// identity survives Reconnect, which is the point; without one a sequence
// number is not sent and the server tracks nothing for the request.
func WithSession(id string) Option {
	return func(o *options) { o.session = id }
}

// WithCodec sets the frame codec of a client's connections; without it (or
// with nil) Dial picks BinaryCodec. The codec's tag is the first byte of each
// connection, and the server answers in the codec it names, so a client
// pinned to gob (WithCodec(GobCodec()), what a gob measurement asks for)
// needs nothing from the server it dials.
func WithCodec(c Codec) Option {
	return func(o *options) { o.codec = c }
}

// WithRegistry points a server (or rmi.Node) at a pool registry: on Listen
// it registers its bound address and session epoch with the Registry served
// at addr (see RegistryName), and on graceful Close it deregisters. Combine
// with WithHeartbeat so the registry also detects silent death.
func WithRegistry(addr string) Option {
	return func(o *options) { o.registry = addr }
}

// WithHeartbeat sets the interval at which a registered server beats
// against its registry (values ≤ 0 keep defaultHeartbeatInterval). The
// beats ride the server's clock seam, so under clock.Virtual the whole
// liveness loop runs on virtual time without wall-clock sleeps. Inert
// without WithRegistry.
func WithHeartbeat(interval time.Duration) Option {
	return func(o *options) { o.heartbeat = interval }
}
