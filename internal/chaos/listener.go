package chaos

import (
	"net"
	"time"
)

// Listener wraps base so accepted connections pass through the
// injector's rules — the server-side surface behind delta-server's
// -chaos flag. Rules without a Path are evaluated once per accepted
// connection (refuse closes it immediately; status answers a raw HTTP
// error and closes; latency and stream faults attach to the
// connection). Rules with a Path are evaluated per HTTP request: the
// request line is sniffed from the inbound bytes — including follow-up
// requests on a kept-alive connection — so faults can target /v2/shards
// without touching /healthz probes.
func (inj *Injector) Listener(base net.Listener) net.Listener {
	return &listener{inj: inj, base: base}
}

type listener struct {
	inj  *Injector
	base net.Listener
}

func (l *listener) Addr() net.Addr { return l.base.Addr() }
func (l *listener) Close() error   { return l.base.Close() }

func (l *listener) Accept() (net.Conn, error) {
	for {
		conn, err := l.base.Accept()
		if err != nil {
			return nil, err
		}
		plan := splitFaults(l.inj.plan("", "", false))
		if plan.refuse {
			conn.Close()
			continue
		}
		// A synthetic status is answered from Read once the request
		// arrives — writing before the client speaks would look like an
		// unsolicited response on an idle connection.
		return &chaosConn{Conn: conn, inj: l.inj, accept: plan, plan: plan}, nil
	}
}

func writeRawStatus(conn net.Conn, status int) {
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	body := "chaos injected\n"
	head := "HTTP/1.1 " + itoa(status) + " Service Unavailable\r\n" +
		"Content-Type: text/plain\r\n" +
		"Content-Length: " + itoa(len(body)) + "\r\n" +
		"Connection: close\r\n\r\n"
	conn.Write([]byte(head + body))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// chaosConn applies stream plans to one accepted connection. Each
// sniffed HTTP request line starts a fresh exchange: path-matched rules
// are planned for it and merged over the accept-time plan, and the
// write-side frame filter restarts so frame indices are per-response.
type chaosConn struct {
	net.Conn
	inj    *Injector
	accept streamPlan // connection-level plan from accept time
	plan   streamPlan // current exchange's plan

	responded bool // first write of the current exchange already seen
	filter    *frameFilter
}

func (c *chaosConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && looksLikeRequest(p[:n]) {
		c.plan = c.accept
		c.responded = false
		c.filter = nil
		if path := sniffPath(p[:n]); path != "" {
			more := splitFaults(c.inj.plan("", path, true))
			if more.refuse {
				c.Conn.Close()
				return 0, net.ErrClosed
			}
			c.plan = mergePlans(c.plan, more)
		}
		if c.plan.refuse {
			c.Conn.Close()
			return 0, net.ErrClosed
		}
		if c.plan.status != 0 {
			writeRawStatus(c.Conn, c.plan.status)
			c.Conn.Close()
			return 0, net.ErrClosed
		}
		if c.plan.dial > 0 {
			c.inj.doSleep(c.plan.dial)
		}
	}
	return n, err
}

func (c *chaosConn) Write(p []byte) (int, error) {
	if !c.responded {
		c.responded = true
		if c.plan.firstByte > 0 {
			c.inj.doSleep(c.plan.firstByte)
		}
		c.filter = c.plan.filter(func(d time.Duration) error {
			c.inj.doSleep(d)
			return nil
		})
	}
	if c.filter == nil {
		return c.Conn.Write(p)
	}
	out, ferr := c.filter.process(p, false)
	if len(out) > 0 {
		if _, werr := c.Conn.Write(out); werr != nil {
			return 0, werr
		}
	}
	if ferr != nil {
		// Cut or torn frame: drop the connection under the server's
		// feet. Report p as written so the handler fails on a later
		// write, like a real half-broken socket.
		c.Conn.Close()
	}
	return len(p), nil
}

// looksLikeRequest reports whether a read chunk begins with an HTTP
// request line — how each new exchange on a (possibly kept-alive)
// connection announces itself.
func looksLikeRequest(b []byte) bool {
	for _, m := range [...]string{"GET ", "POST ", "PUT ", "HEAD ", "DELETE ", "PATCH ", "OPTIONS "} {
		if len(b) >= len(m) && string(b[:len(m)]) == m {
			return true
		}
	}
	return false
}

// sniffPath extracts the request path from an HTTP/1.x request line
// ("POST /v2/shards HTTP/1.1\r\n...") when the whole line sits in the
// first read; returns "" otherwise.
func sniffPath(b []byte) string {
	sp1 := -1
	for i, c := range b {
		if c == '\r' || c == '\n' {
			return ""
		}
		if c != ' ' {
			continue
		}
		if sp1 < 0 {
			sp1 = i
			continue
		}
		if b[sp1+1] != '/' {
			return ""
		}
		return string(b[sp1+1 : i])
	}
	return ""
}

func mergePlans(a, b streamPlan) streamPlan {
	a.refuse = a.refuse || b.refuse
	if b.status != 0 {
		a.status = b.status
	}
	a.dial += b.dial
	a.firstByte += b.firstByte
	a.frameLat += b.frameLat
	if b.cutAfter >= 0 {
		a.cutAfter = b.cutAfter
	}
	if b.truncAt >= 0 {
		a.truncAt = b.truncAt
	}
	if b.corruptAt >= 0 {
		a.corruptAt = b.corruptAt
	}
	return a
}
