package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// parseMetrics reads Prometheus text exposition (what arbd-server -obs
// serves on /metrics) into name → value. Summary quantile series keep their
// label as part of the name.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64, 64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad sample %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrape GETs one /metrics page over a keep-alive client.
func scrape(hc *http.Client, obsAddr string) (map[string]float64, error) {
	resp, err := hc.Get("http://" + obsAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: HTTP %d", obsAddr, resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}
