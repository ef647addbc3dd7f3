package rpc

import (
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"spectra/internal/wire"
)

// TestServerSurvivesGarbageConnection feeds raw garbage to the server; the
// offending connection dies, but the server keeps serving others.
func TestServerSurvivesGarbageConnection(t *testing.T) {
	_, addr := startTestServer(t)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("this is not a spectra frame at all")); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, _, err := c.Call(context.Background(), "echo", "op", []byte("still alive"), nil); err != nil {
		t.Fatalf("server died after garbage: %v", err)
	}
}

// TestServerRejectsOversizedFrame sends a frame whose length prefix claims
// more than the protocol maximum; the connection must be dropped without
// the server attempting a giant allocation-and-read.
func TestServerRejectsOversizedFrame(t *testing.T) {
	_, addr := startTestServer(t)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], wire.MaxMessageBytes+1)
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// The server should close the connection rather than wait for 64 MiB.
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("expected connection close or read error")
	}

	// And other clients are unaffected.
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, _, err := c.Call(context.Background(), "echo", "op", nil, nil); err != nil {
		t.Fatalf("server unusable after oversized frame: %v", err)
	}
}

// TestClientTimeoutOnSilentServer ensures a stuck server cannot hang the
// client past its deadline.
func TestClientTimeoutOnSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Accept and say nothing.
		defer conn.Close()
		time.Sleep(5 * time.Second)
	}()

	c, err := Dial(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(200 * time.Millisecond)
	start := time.Now()
	if _, _, _, err := c.Call(context.Background(), "echo", "op", nil, nil); err == nil {
		t.Fatal("call to silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}
