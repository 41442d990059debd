// Minimal RFC 6455 WebSocket support — server-side upgrade plus a client
// dialer — implemented on the standard library only (the repo takes no
// third-party dependencies). It covers exactly what the event stream needs:
// unfragmented text frames, ping/pong, and clean close handshakes. It is not
// a general-purpose WebSocket stack: continuation frames and extensions are
// rejected, and both ends are expected to be this package's own peer (the
// crowdsim service client and cmd/loadsim) or a spec-conforming browser.
package wire

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
)

const wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// WebSocket frame opcodes (RFC 6455 §5.2).
const (
	opText  = 0x1
	opClose = 0x8
	opPing  = 0x9
	opPong  = 0xA
)

// maxFramePayload bounds incoming frames; event messages are small, so
// anything larger is a protocol violation, not a big message.
const maxFramePayload = 1 << 20

// ErrClosed reports an orderly close handshake from the peer.
var ErrClosed = errors.New("api: websocket closed by peer")

// ErrHijacked marks an upgrade failure that happened after the HTTP
// connection was hijacked: the TCP connection has already been closed here,
// and the caller must not touch the ResponseWriter (writes to a hijacked
// response are discarded).
var ErrHijacked = errors.New("api: websocket handshake failed after hijack")

// wsAccept computes the Sec-WebSocket-Accept token for a client key.
func wsAccept(key string) string {
	h := sha1.Sum([]byte(key + wsGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// Conn is one WebSocket connection. Writes are serialized internally;
// reads must come from a single goroutine.
type Conn struct {
	conn   net.Conn
	br     *bufio.Reader
	wmu    sync.Mutex
	client bool // clients mask outgoing frames (RFC 6455 §5.3)
}

// UpgradeWebSocket performs the server side of the opening handshake and
// hijacks the HTTP connection. It writes nothing on failure. Errors before
// the hijack (bad headers, a writer that cannot hijack) leave w untouched —
// the caller should write a plain HTTP error response. Errors after the
// hijack (the 101 response failed to reach the peer) are wrapped in
// ErrHijacked: the connection is already closed and the caller must not
// write to w.
func UpgradeWebSocket(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if !headerContainsToken(r.Header, "Connection", "upgrade") ||
		!headerContainsToken(r.Header, "Upgrade", "websocket") {
		return nil, fmt.Errorf("api: not a websocket upgrade request")
	}
	if v := r.Header.Get("Sec-WebSocket-Version"); v != "13" {
		return nil, fmt.Errorf("api: unsupported websocket version %q", v)
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		return nil, errors.New("api: missing Sec-WebSocket-Key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		return nil, errors.New("api: response writer does not support hijacking")
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		return nil, err
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + wsAccept(key) + "\r\n\r\n"
	if _, err := brw.WriteString(resp); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: %w", ErrHijacked, err)
	}
	if err := brw.Flush(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: %w", ErrHijacked, err)
	}
	return &Conn{conn: conn, br: brw.Reader}, nil
}

// headerContainsToken reports whether a comma-separated header field
// contains the token (case-insensitively) — "Connection: keep-alive, Upgrade"
// must match "upgrade".
func headerContainsToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// dialWebSocket performs the client side of the opening handshake against an
// http:// or ws:// URL.
func dialWebSocket(rawURL string) (*Conn, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	switch u.Scheme {
	case "ws", "http":
	default:
		return nil, fmt.Errorf("api: unsupported websocket scheme %q", u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	keyBytes := make([]byte, 16)
	if _, err := rand.Read(keyBytes); err != nil {
		conn.Close()
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString(keyBytes)
	path := u.RequestURI()
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: " + u.Host + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, &http.Request{Method: "GET"})
	if err != nil {
		conn.Close()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		conn.Close()
		return nil, fmt.Errorf("api: websocket handshake rejected: %s", resp.Status)
	}
	if got := resp.Header.Get("Sec-WebSocket-Accept"); got != wsAccept(key) {
		conn.Close()
		return nil, errors.New("api: websocket handshake accept mismatch")
	}
	return &Conn{conn: conn, br: br, client: true}, nil
}

// WriteText sends one unfragmented text frame.
func (c *Conn) WriteText(payload []byte) error {
	return c.writeFrame(opText, payload)
}

// writeFrame emits a single FIN frame in one write, masking when this end is
// a client.
func (c *Conn) writeFrame(opcode byte, payload []byte) error {
	var maskKey [4]byte
	if c.client {
		if _, err := rand.Read(maskKey[:]); err != nil {
			return err
		}
	}
	frame := appendFrame(make([]byte, 0, 14+len(payload)), opcode, payload, c.client, maskKey)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.conn.Write(frame)
	return err
}

// appendFrame appends one FIN frame carrying payload to buf: the header with
// the length in its shortest encoding, then the payload, masked with maskKey
// when mask is set (RFC 6455 §5.2, §5.3).
func appendFrame(buf []byte, opcode byte, payload []byte, mask bool, maskKey [4]byte) []byte {
	buf = append(buf, 0x80|opcode)
	maskBit := byte(0)
	if mask {
		maskBit = 0x80
	}
	switch n := len(payload); {
	case n < 126:
		buf = append(buf, maskBit|byte(n))
	case n <= 0xFFFF:
		buf = append(buf, maskBit|126, byte(n>>8), byte(n))
	default:
		buf = append(buf, maskBit|127)
		buf = binary.BigEndian.AppendUint64(buf, uint64(n))
	}
	if !mask {
		return append(buf, payload...)
	}
	buf = append(buf, maskKey[:]...)
	for i, b := range payload {
		buf = append(buf, b^maskKey[i%4])
	}
	return buf
}

// ReadText reads the next text message, transparently answering pings and
// completing close handshakes (a close returns ErrClosed).
func (c *Conn) ReadText() ([]byte, error) {
	for {
		opcode, payload, err := c.readFrame()
		if err != nil {
			return nil, err
		}
		switch opcode {
		case opText:
			return payload, nil
		case opPing:
			if err := c.writeFrame(opPong, payload); err != nil {
				return nil, err
			}
		case opPong:
			// Unsolicited pong: ignore.
		case opClose:
			c.writeFrame(opClose, payload)
			c.conn.Close()
			return nil, ErrClosed
		default:
			return nil, fmt.Errorf("api: unsupported websocket opcode %#x (fragmentation and binary frames are not used by this protocol)", opcode)
		}
	}
}

// readFrame reads one frame and unmasks its payload. It rejects what RFC 6455
// forbids or this protocol does not use: nonzero reserved bits (§5.2; no
// extension is ever negotiated), a frame masked the wrong way for its
// direction (§5.1: every client frame is masked, no server frame is),
// fragmentation, control frames over 125 bytes (§5.5) and payloads over
// maxFramePayload.
func (c *Conn) readFrame() (byte, []byte, error) {
	var h [2]byte
	if _, err := io.ReadFull(c.br, h[:]); err != nil {
		return 0, nil, err
	}
	if h[0]&0x70 != 0 {
		return 0, nil, fmt.Errorf("api: websocket frame with reserved bits %#x set", h[0]&0x70)
	}
	if h[0]&0x80 == 0 {
		return 0, nil, errors.New("api: fragmented websocket frames are not supported")
	}
	opcode := h[0] & 0x0F
	masked := h[1]&0x80 != 0
	if masked == c.client {
		if c.client {
			return 0, nil, errors.New("api: masked websocket frame from the server")
		}
		return 0, nil, errors.New("api: unmasked websocket frame from the client")
	}
	length := uint64(h[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return 0, nil, err
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return 0, nil, err
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	if opcode&0x8 != 0 && length > 125 {
		return 0, nil, fmt.Errorf("api: websocket control frame of %d bytes exceeds 125", length)
	}
	if length > maxFramePayload {
		return 0, nil, fmt.Errorf("api: websocket frame of %d bytes exceeds limit", length)
	}
	var maskKey [4]byte
	if masked {
		if _, err := io.ReadFull(c.br, maskKey[:]); err != nil {
			return 0, nil, err
		}
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return 0, nil, err
	}
	if masked {
		for i := range payload {
			payload[i] ^= maskKey[i%4]
		}
	}
	return opcode, payload, nil
}

// Close sends a close frame (best effort) and closes the connection.
func (c *Conn) Close() error {
	c.writeFrame(opClose, nil)
	return c.conn.Close()
}
