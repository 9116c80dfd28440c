// Command fabricmgrd runs the PortLand fabric manager as a standalone
// network daemon: switches (or operator tooling) connect over TCP and
// speak the binary control protocol. This is the deployment shape the
// paper describes — a logically centralized manager on the control
// network, holding only soft state that reconnecting switches rebuild.
//
// Usage:
//
//	fabricmgrd -listen 127.0.0.1:7000 -stats 5s
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"portland/internal/ctrlmsg"
	"portland/internal/ctrlnet"
	"portland/internal/fabricmgr"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7000", "address to serve the control protocol on")
		statsIvl = flag.Duration("stats", 10*time.Second, "interval between stats lines (0 disables)")
	)
	flag.Parse()

	mgr := fabricmgr.New()
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	log.Printf("fabric manager serving on %s", ln.Addr())

	if *statsIvl > 0 {
		go func() {
			for range time.Tick(*statsIvl) {
				log.Printf("stats: %s", statsLine(mgr))
			}
		}()
	}
	if err := acceptLoop(mgr, ln); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// statsLine formats one stats report. It reads the manager only through
// its locked accessors, so it is safe while sessions are running.
func statsLine(mgr *fabricmgr.Manager) string {
	return fmt.Sprintf("hosts=%d %+v", mgr.NumHosts(), mgr.StatsSnapshot())
}

// acceptLoop serves every switch connection ln accepts on its own
// session goroutine, until Accept fails (for instance because ln was
// closed), and returns that error.
func acceptLoop(mgr *fabricmgr.Manager, ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go serve(mgr, conn)
	}
}

// serve binds one switch connection to a manager session and pumps it
// until the peer disconnects.
func serve(mgr *fabricmgr.Manager, conn net.Conn) {
	log.Printf("switch connected from %s", conn.RemoteAddr())
	ready := make(chan struct{})
	var sess *fabricmgr.Session
	tc := ctrlnet.NewTCPConn(conn, func(m ctrlmsg.Msg) {
		<-ready
		sess.Handle(m)
	})
	sess = mgr.NewSession(tc)
	close(ready)
	<-tc.Done() // read loop exits on disconnect or protocol error
	if err := tc.ReadErr(); err != nil {
		log.Printf("switch %s: %v", conn.RemoteAddr(), err)
	}
	log.Printf("switch %s disconnected", conn.RemoteAddr())
}
