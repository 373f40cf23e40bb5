// Command sgfs-mount establishes a secure SGFS session to a server
// and presents the mounted file system through an interactive shell
// (since a kernel mount is out of scope for a user-level demo, the
// shell plays the role of the unmodified application).
//
// Usage:
//
//	sgfs-mount -server fileserver:30049 -export /GFS/alice \
//	    -cert proxy-alice.pem -key proxy-alice.key -ca ca.pem \
//	    [-cache /var/cache/sgfs] [-suite aes]
//
// Shell commands: ls [dir], cat <file>, put <file> <text...>,
// mkdir <dir>, rm <file>, mv <old> <new>, stat <path>, flush, rekey,
// stats, help, quit.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro"
	"repro/internal/securechan"
)

func main() {
	server := flag.String("server", "", "server proxy address")
	export := flag.String("export", "/GFS/data", "export path")
	certPath := flag.String("cert", "", "user (or proxy) certificate PEM")
	keyPath := flag.String("key", "", "user key PEM")
	caPath := flag.String("ca", "", "trusted CA PEM")
	cacheDir := flag.String("cache", "", "disk cache directory (enables write-back caching)")
	suiteName := flag.String("suite", "aes", "channel suite: aes, rc4, sha")
	flag.Parse()
	if *server == "" {
		fmt.Fprintln(os.Stderr, "usage: sgfs-mount -server host:port -export /GFS/x -cert c -key k -ca ca")
		os.Exit(2)
	}

	user, err := sgfs.LoadCredential(*certPath, *keyPath)
	if err != nil {
		log.Fatalf("sgfs-mount: %v", err)
	}
	roots, err := sgfs.LoadCAPool(*caPath)
	if err != nil {
		log.Fatalf("sgfs-mount: %v", err)
	}
	suite, err := securechan.ParseSuite(*suiteName)
	if err != nil {
		log.Fatalf("sgfs-mount: %v", err)
	}

	ctx := context.Background()
	fs, err := sgfs.Mount(ctx, sgfs.MountConfig{
		ServerAddr:   *server,
		ExportPath:   *export,
		User:         user,
		Roots:        roots,
		Suites:       []sgfs.Suite{suite},
		DiskCacheDir: *cacheDir,
	})
	if err != nil {
		log.Fatalf("sgfs-mount: %v", err)
	}
	defer fs.Unmount()
	fmt.Printf("mounted %s from %s as %s (suite %s)\n", *export, *server, user.EffectiveDN(), suite)

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("sgfs> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			if quit := execute(ctx, fs, line); quit {
				break
			}
		}
		fmt.Print("sgfs> ")
	}
}

func execute(ctx context.Context, fs *sgfs.FileSystem, line string) (quit bool) {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	fail := func(err error) {
		fmt.Println("error:", err)
	}
	switch cmd {
	case "quit", "exit":
		return true
	case "help":
		fmt.Println("commands: ls [dir] | cat <file> | put <file> <text...> | mkdir <dir> | rm <file> | mv <old> <new> | stat <path> | flush | rekey | stats | quit")
	case "ls":
		dir := "/"
		if len(args) > 0 {
			dir = args[0]
		}
		entries, err := fs.ReadDir(ctx, dir)
		if err != nil {
			fail(err)
			break
		}
		for _, e := range entries {
			kind := "-"
			if e.Attr.Present && e.Attr.Attr.Type == 2 {
				kind = "d"
			}
			size := uint64(0)
			if e.Attr.Present {
				size = e.Attr.Attr.Size
			}
			fmt.Printf("%s %10d  %s\n", kind, size, e.Name)
		}
	case "cat":
		if len(args) != 1 {
			fmt.Println("usage: cat <file>")
			break
		}
		f, err := fs.Open(ctx, args[0])
		if err != nil {
			fail(err)
			break
		}
		buf := make([]byte, 64*1024)
		for {
			n, err := f.Read(ctx, buf)
			if n > 0 {
				if _, werr := os.Stdout.Write(buf[:n]); werr != nil {
					fail(werr)
					break
				}
			}
			if err != nil || n == 0 {
				break
			}
		}
		if err := f.Close(ctx); err != nil {
			fail(err)
		}
		fmt.Println()
	case "put":
		if len(args) < 2 {
			fmt.Println("usage: put <file> <text...>")
			break
		}
		f, err := fs.Create(ctx, args[0], 0644)
		if err != nil {
			fail(err)
			break
		}
		if _, err := f.Write(ctx, []byte(strings.Join(args[1:], " ")+"\n")); err != nil {
			fail(err)
		}
		if err := f.Close(ctx); err != nil {
			fail(err)
		}
	case "mkdir":
		if len(args) != 1 {
			fmt.Println("usage: mkdir <dir>")
			break
		}
		if err := fs.Mkdir(ctx, args[0], 0755); err != nil {
			fail(err)
		}
	case "rm":
		if len(args) != 1 {
			fmt.Println("usage: rm <file>")
			break
		}
		if err := fs.Remove(ctx, args[0]); err != nil {
			fail(err)
		}
	case "mv":
		if len(args) != 2 {
			fmt.Println("usage: mv <old> <new>")
			break
		}
		if err := fs.Rename(ctx, args[0], args[1]); err != nil {
			fail(err)
		}
	case "stat":
		if len(args) != 1 {
			fmt.Println("usage: stat <path>")
			break
		}
		attr, err := fs.Stat(ctx, args[0])
		if err != nil {
			fail(err)
			break
		}
		fmt.Printf("size %d  mode %o  uid %d gid %d  mtime %s\n",
			attr.Size, attr.Mode, attr.UID, attr.GID, attr.Mtime.Time())
	case "flush":
		if err := fs.Flush(ctx); err != nil {
			fail(err)
		} else {
			fmt.Println("write-back data flushed")
		}
	case "rekey":
		if err := fs.Rekey(); err != nil {
			fail(err)
		} else {
			fmt.Println("session key renegotiated")
		}
	case "stats":
		if st, ok := fs.CacheStats(); ok {
			fmt.Printf("block hits %d misses %d; name hits %d misses %d; attr hits %d misses %d; flushed %d B; cancelled %d B\n",
				st.BlockHits, st.BlockMisses, st.NameHits, st.NameMisses, st.AttrHits, st.AttrMisses, st.FlushedBytes, st.CancelledBytes)
		} else {
			fmt.Println("disk cache not enabled")
		}
	default:
		fmt.Println("unknown command; try help")
	}
	return false
}
