package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"
)

// probeCmd issues one HTTP request and asserts on the answer.
func probeCmd(args []string) error {
	fs := flag.NewFlagSet("bluctl probe", flag.ContinueOnError)
	addr := fs.String("addr", "", "target daemon address (host:port)")
	path := fs.String("path", "/v1/infer", "endpoint path")
	bodyFile := fs.String("body", "", "request body file (- = stdin, empty = GET)")
	wantStatus := fs.Int("require-status", http.StatusOK, "fail unless the response status matches")
	wantCache := fs.String("require-cache", "", "fail unless X-Blu-Cache equals this (empty = skip)")
	saveBody := fs.String("save-body", "", "write the response body to this file")
	wantBodyFile := fs.String("require-body-file", "", "fail unless the body equals this file byte-for-byte")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required")
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	var reqBody []byte
	if *bodyFile == "-" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return fmt.Errorf("read stdin: %w", err)
		}
		reqBody = data
	} else if *bodyFile != "" {
		data, err := os.ReadFile(*bodyFile)
		if err != nil {
			return err
		}
		reqBody = data
	}

	client := &http.Client{Timeout: 60 * time.Second}
	url := "http://" + *addr + *path
	var resp *http.Response
	var err error
	if reqBody == nil {
		resp, err = client.Get(url)
	} else {
		resp, err = client.Post(url, "application/json", bytes.NewReader(reqBody))
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("read response: %w", err)
	}

	if resp.StatusCode != *wantStatus {
		return fmt.Errorf("%s: status %d, want %d: %s", *path, resp.StatusCode, *wantStatus, bytes.TrimSpace(body))
	}
	if *wantCache != "" {
		if got := resp.Header.Get("X-Blu-Cache"); got != *wantCache {
			return fmt.Errorf("%s: X-Blu-Cache %q, want %q", *path, got, *wantCache)
		}
	}
	if *saveBody != "" {
		if err := os.WriteFile(*saveBody, body, 0o644); err != nil {
			return err
		}
	}
	if *wantBodyFile != "" {
		want, err := os.ReadFile(*wantBodyFile)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, want) {
			return fmt.Errorf("%s: body differs from %s (%d vs %d bytes)", *path, *wantBodyFile, len(body), len(want))
		}
	}
	fmt.Printf("bluctl probe: %s %d (%d bytes)\n", *path, resp.StatusCode, len(body))
	return nil
}
