package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
)

// pipe returns the two ends of an in-memory connection: a server-side Conn,
// which expects masked frames and sends unmasked ones, and a client-side
// Conn, which does the reverse.
func pipe(t *testing.T) (server, client *Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return &Conn{conn: a, br: bufio.NewReader(a)}, &Conn{conn: b, br: bufio.NewReader(b), client: true}
}

// reader returns a Conn that reads raw frame bytes as a client or a server.
func reader(raw []byte, client bool) *Conn {
	return &Conn{br: bufio.NewReader(bytes.NewReader(raw)), client: client}
}

// TestFrameRoundTrip writes frames at every boundary of the length encoding
// through writeFrame and reads them back with readFrame, in both directions:
// client to server (masked) and server to client (unmasked).
func TestFrameRoundTrip(t *testing.T) {
	for _, n := range []int{0, 125, 126, 65535, 65536} {
		payload := bytes.Repeat([]byte("abcdefg"), n/7+1)[:n]
		for _, toServer := range []bool{true, false} {
			name := fmt.Sprintf("server-to-client/%d", n)
			if toServer {
				name = fmt.Sprintf("client-to-server/%d", n)
			}
			t.Run(name, func(t *testing.T) {
				server, client := pipe(t)
				from, to := server, client
				if toServer {
					from, to = client, server
				}
				errc := make(chan error, 1)
				go func() { errc <- from.writeFrame(opText, payload) }()
				op, got, err := to.readFrame()
				if err != nil {
					t.Fatal(err)
				}
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
				if op != opText || !bytes.Equal(got, payload) {
					t.Fatalf("read opcode %#x with %d bytes, want a text frame of %d bytes", op, len(got), n)
				}
			})
		}
	}
}

// TestPingAnsweredWithPong checks that ReadText answers a client ping with a
// pong carrying the same payload and then goes on to return the next text
// message.
func TestPingAnsweredWithPong(t *testing.T) {
	server, client := pipe(t)
	type result struct {
		msg []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		msg, err := server.ReadText()
		done <- result{msg, err}
	}()
	if err := client.writeFrame(opPing, []byte("are you there")); err != nil {
		t.Fatal(err)
	}
	op, payload, err := client.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if op != opPong || string(payload) != "are you there" {
		t.Fatalf("got opcode %#x payload %q, want a pong echoing the ping", op, payload)
	}
	if err := client.WriteText([]byte("after the ping")); err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.err != nil || string(r.msg) != "after the ping" {
		t.Fatalf("ReadText = %q, %v; want the text sent after the ping", r.msg, r.err)
	}
}

// TestCloseHandshake checks that a close frame from the peer makes ReadText
// echo the close (same status payload) and report ErrClosed.
func TestCloseHandshake(t *testing.T) {
	server, client := pipe(t)
	done := make(chan error, 1)
	go func() {
		_, err := server.ReadText()
		done <- err
	}()
	status := []byte{0x03, 0xE8} // 1000, normal closure
	if err := client.writeFrame(opClose, status); err != nil {
		t.Fatal(err)
	}
	op, payload, err := client.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if op != opClose || !bytes.Equal(payload, status) {
		t.Fatalf("got opcode %#x payload %v, want the close echoed", op, payload)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadText after close = %v, want ErrClosed", err)
	}
}

// TestReadFrameRejects feeds readFrame frames that RFC 6455 or this protocol
// forbids, each in the role that must refuse it.
func TestReadFrameRejects(t *testing.T) {
	key := [4]byte{0x11, 0x22, 0x33, 0x44}
	masked := func(op byte, payload []byte) []byte { return appendFrame(nil, op, payload, true, key) }
	unmasked := func(op byte, payload []byte) []byte { return appendFrame(nil, op, payload, false, key) }
	withFirstByte := func(frame []byte, b0 byte) []byte {
		frame[0] = b0
		return frame
	}
	overLimit := []byte{0x80 | opText, 0x80 | 127, 0, 0, 0, 0, 0, 0x10, 0, 0x01}
	cases := []struct {
		name   string
		raw    []byte
		client bool // read as the client (frames from the server)
		want   string
	}{
		{"unmasked client text", unmasked(opText, []byte("hi")), false, "unmasked"},
		{"unmasked client ping", unmasked(opPing, []byte("hi")), false, "unmasked"},
		{"masked server text", masked(opText, []byte("hi")), true, "masked"},
		{"oversized ping", masked(opPing, make([]byte, 126)), false, "control frame"},
		{"oversized close", masked(opClose, make([]byte, 200)), false, "control frame"},
		{"oversized pong from server", unmasked(opPong, make([]byte, 1<<16)), true, "control frame"},
		{"rsv1 set", withFirstByte(masked(opText, []byte("hi")), 0x80|0x40|opText), false, "reserved bits"},
		{"rsv3 set", withFirstByte(unmasked(opText, []byte("hi")), 0x80|0x10|opText), true, "reserved bits"},
		{"fragmented", withFirstByte(masked(opText, []byte("hi")), opText), false, "fragmented"},
		{"over the payload limit", overLimit, false, "exceeds limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := reader(tc.raw, tc.client).readFrame()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("readFrame = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

// FuzzReadFrame feeds arbitrary bytes to readFrame in both roles. Nothing may
// panic; an accepted frame must respect the payload and control-frame limits
// and read back identically after appendFrame re-encodes it in the sending
// role.
func FuzzReadFrame(f *testing.F) {
	key := [4]byte{1, 2, 3, 4}
	f.Add(appendFrame(nil, opText, []byte(`{"kind":"fixpoint"}`), true, key), false)
	f.Add(appendFrame(nil, opText, []byte(`{"kind":"fixpoint"}`), false, key), true)
	f.Add(appendFrame(nil, opPing, []byte("ping"), true, key), false)
	f.Add(appendFrame(nil, opClose, []byte{0x03, 0xE8}, false, key), true)
	f.Add(appendFrame(nil, opText, make([]byte, 300), true, key), false)
	f.Add([]byte{0x81, 0xFF, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, false)
	f.Fuzz(func(t *testing.T, raw []byte, client bool) {
		op, payload, err := reader(raw, client).readFrame()
		if err != nil {
			return
		}
		if len(payload) > maxFramePayload {
			t.Fatalf("accepted a %d-byte payload over the %d limit", len(payload), maxFramePayload)
		}
		if op&0x8 != 0 && len(payload) > 125 {
			t.Fatalf("accepted a %d-byte control frame", len(payload))
		}
		again, payload2, err := reader(appendFrame(nil, op, payload, !client, key), client).readFrame()
		if err != nil || again != op || !bytes.Equal(payload2, payload) {
			t.Fatalf("re-encoded frame read back as %#x %q, %v; want %#x %q", again, payload2, err, op, payload)
		}
	})
}
