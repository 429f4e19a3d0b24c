package rmi

import (
	"time"

	"aspectpar/internal/clock"
)

// Functional construction options for clients and servers: every knob (the
// clock before Listen, the session tag before the first tracked request, the
// send window) is fixed at construction, so there is no window in which a
// half-configured client or server is observable. Only the send window can
// also be changed afterwards (Client.SetSendWindow — the autotuner resizes
// live windows).

// Option configures a Client (at Dial) or a Server (at NewServer/Serve).
// Options that only make sense on one side are ignored by the other.
type Option func(*options)

type options struct {
	clk       clock.Clock
	window    int
	policy    *ReconnectPolicy
	session   string
	codec     Codec
	codecs    []Codec
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

// WithClock installs the time source — reconnect backoff on a client;
// service-time stamps, drain graces and injected delays on a server. nil
// keeps the wall clock.
func WithClock(clk clock.Clock) Option {
	return func(o *options) { o.clk = clk }
}

// WithSendWindow sets a client's one-way flow-control window (values below 1
// clamp to 1); see SetSendWindow for the semantics.
func WithSendWindow(n int) Option {
	return func(o *options) { o.window = n }
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

// WithCodec sets the frame codec a client offers in its handshake; without it
// (or with nil) Dial offers BinaryCodec. Dial negotiates synchronously: if the
// server does not speak the offer, the connection simply stays on gob — mixed
// clusters interoperate. WithCodec(GobCodec()) pins the client to gob and
// skips the negotiation round trip: what a gob measurement, or a peer that
// cannot answer a Hello, asks for.
func WithCodec(c Codec) Option {
	return func(o *options) { o.codec = c }
}

// WithCodecs restricts the codecs a server accepts in handshake negotiation;
// the default accepts every built-in. WithCodecs(GobCodec()) makes a
// gob-only server — how the mixed-codec conformance cell models an old node.
// Gob itself is always accepted: it is the pre-negotiation state of every
// connection, not a negotiable option.
func WithCodecs(cs ...Codec) Option {
	return func(o *options) { o.codecs = cs }
}

// WithRegistry points a server (or rmi.Node) at a pool registry: on Listen
// it registers its bound address and session epoch with the Registry served
// at addr (see RegistryName), and on graceful Close it deregisters. Combine
// with WithHeartbeat so the registry also detects silent death.
func WithRegistry(addr string) Option {
	return func(o *options) { o.registry = addr }
}

// WithHeartbeat sets the interval at which a registered server beats
// against its registry (values ≤ 0 keep DefaultHeartbeatInterval). The
// beats ride the server's clock seam, so under clock.Virtual the whole
// liveness loop runs on virtual time without wall-clock sleeps. Inert
// without WithRegistry.
func WithHeartbeat(interval time.Duration) Option {
	return func(o *options) { o.heartbeat = interval }
}
