package main

import (
	"errors"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"portland/internal/ctrlmsg"
	"portland/internal/ctrlnet"
	"portland/internal/ether"
	"portland/internal/fabricmgr"
)

// TestDaemonStatsWhileServing runs the daemon's accept loop on a real
// loopback listener, connects two switches that register hosts over
// ctrlnet.TCPConn, and formats the stats line continuously while the
// sessions write the counters. Run under -race it is the gate on the
// stats reporter reading the manager only through its locked accessors.
func TestDaemonStatsWhileServing(t *testing.T) {
	mgr := fabricmgr.New()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- acceptLoop(mgr, ln) }()

	stop := make(chan struct{})
	reported := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				reported <- n
				return
			default:
				if line := statsLine(mgr); !strings.HasPrefix(line, "hosts=") {
					t.Errorf("malformed stats line %q", line)
				}
				n++
			}
		}
	}()

	const perSwitch = 200
	for sw := 1; sw <= 2; sw++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		tc := ctrlnet.NewTCPConn(c, nil)
		defer tc.Close()
		id := ctrlmsg.SwitchID(sw)
		if err := tc.Send(ctrlmsg.Hello{Switch: id}); err != nil {
			t.Fatal(err)
		}
		for h := 0; h < perSwitch; h++ {
			ip := netip.AddrFrom4([4]byte{10, byte(sw), byte(h >> 8), byte(h)})
			pmac := ether.Addr{0, byte(sw), 0, 0, byte(h >> 8), byte(h)}
			if err := tc.Send(ctrlmsg.PMACRegister{Switch: id, IP: ip, AMAC: pmac, PMAC: pmac}); err != nil {
				t.Fatal(err)
			}
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for mgr.NumHosts() < 2*perSwitch {
		if time.Now().After(deadline) {
			t.Fatalf("registry holds %d hosts, want %d", mgr.NumHosts(), 2*perSwitch)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if n := <-reported; n == 0 {
		t.Fatal("stats reporter never ran")
	}
	if got := mgr.StatsSnapshot().Registrations; got != 2*perSwitch {
		t.Fatalf("Registrations = %d, want %d", got, 2*perSwitch)
	}
	ln.Close()
	if err := <-served; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept loop ended with %v, want net.ErrClosed", err)
	}
}
