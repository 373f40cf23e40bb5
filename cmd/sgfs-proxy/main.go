// Command sgfs-proxy runs an SGFS proxy (client- or server-side) from
// a session configuration file, the deployment form described in §4.2
// of the paper. Sending SIGHUP reloads the configuration (gridmap
// refresh on the server side); SIGUSR1 forces a session-key
// renegotiation on the client side.
//
// Usage:
//
//	sgfs-proxy -config session.conf
//
// Example server-side configuration:
//
//	role = server
//	export = /GFS/alice
//	upstream = 127.0.0.1:20049
//	listen = 0.0.0.0:30049
//	security = aes256cbc-sha1
//	cert = /etc/sgfs/host.pem
//	key = /etc/sgfs/host.key
//	ca = /etc/sgfs/ca.pem
//	gridmap = /etc/sgfs/gridmap
//	accounts = /etc/sgfs/accounts
//	fine_grained = true
//
// Example client-side configuration:
//
//	role = client
//	export = /GFS/alice
//	server = fileserver.grid:30049
//	listen = 127.0.0.1:20049
//	security = aes256cbc-sha1
//	cert = /home/alice/.sgfs/proxy-alice.pem
//	key = /home/alice/.sgfs/proxy-alice.key
//	ca = /etc/sgfs/ca.pem
//	disk_cache = /var/cache/sgfs
//	rekey_interval = 30m
//
// A replicated client session replaces "server" with a server list,
// every one of which holds every file, plus optional replication
// knobs (quorum defaults to a majority of the servers):
//
//	servers = fs1.grid:30049, fs2.grid:30049, fs3.grid:30049
//	quorum = 2
//	hedge_delay = 30ms
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
)

func main() {
	configPath := flag.String("config", "", "session configuration file")
	flag.Parse()
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "usage: sgfs-proxy -config session.conf")
		os.Exit(2)
	}
	cfg, err := core.Load(*configPath)
	if err != nil {
		log.Fatalf("sgfs-proxy: %v", err)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGUSR1, syscall.SIGINT, syscall.SIGTERM)

	switch cfg.Role {
	case core.RoleServer:
		sess, err := core.StartServerSession(cfg)
		if err != nil {
			log.Fatalf("sgfs-proxy: %v", err)
		}
		log.Printf("sgfs-proxy: server session for %s listening on %s", cfg.Export, sess.Addr())
		for sig := range sigs {
			switch sig {
			case syscall.SIGHUP:
				fresh, err := core.Load(*configPath)
				if err != nil {
					log.Printf("sgfs-proxy: reload failed: %v", err)
					continue
				}
				if err := sess.Reconfigure(fresh); err != nil {
					log.Printf("sgfs-proxy: reconfigure failed: %v", err)
					continue
				}
				log.Printf("sgfs-proxy: configuration reloaded")
			default:
				log.Printf("sgfs-proxy: shutting down")
				sess.Close()
				return
			}
		}
	case core.RoleClient:
		sess, err := core.StartClientSession(cfg)
		if err != nil {
			log.Fatalf("sgfs-proxy: %v", err)
		}
		log.Printf("sgfs-proxy: client session for %s; mount 127.0.0.1 at %s", cfg.Export, sess.Addr())
		for sig := range sigs {
			switch sig {
			case syscall.SIGUSR1:
				if err := sess.Rekey(); err != nil {
					log.Printf("sgfs-proxy: rekey failed: %v", err)
				} else {
					log.Printf("sgfs-proxy: session key renegotiated")
				}
			case syscall.SIGHUP:
				if err := sess.Flush(context.Background()); err != nil {
					log.Printf("sgfs-proxy: flush failed: %v", err)
				} else {
					log.Printf("sgfs-proxy: write-back data flushed")
				}
			default:
				log.Printf("sgfs-proxy: flushing and shutting down")
				if err := sess.Close(); err != nil {
					log.Printf("sgfs-proxy: close: %v", err)
				}
				return
			}
		}
	}
}
