package sched

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// ValidTenant reports whether name is usable as a tenant identifier:
// 1–64 characters of [a-zA-Z0-9._-]. The alphabet keeps tenant names
// embeddable in metric names and HTTP headers without quoting.
func ValidTenant(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return true
}

// ParseTenantSpec parses one "-tenant" flag value of the form
//
//	name[,key=value...]
//
// with keys weight, rate, burst, max-active, max-queued, ttl, e.g.
//
//	alice,weight=3,rate=1e6,burst=2e6,max-active=2,max-queued=8,ttl=30s
//
// Returns the tenant name and its Limits.
func ParseTenantSpec(spec string) (string, Limits, error) {
	name, rest, _ := strings.Cut(spec, ",")
	name = strings.TrimSpace(name)
	if !ValidTenant(name) {
		return "", Limits{}, fmt.Errorf("sched: invalid tenant name %q (want 1-64 chars of [a-zA-Z0-9._-])", name)
	}
	lim, err := ParseLimits(rest)
	if err != nil {
		return "", Limits{}, fmt.Errorf("sched: tenant %q: %w", name, err)
	}
	return name, lim, nil
}

// ParseLimits parses a comma-separated key=value limit list (the part
// of a tenant spec after the name; "" is valid and yields the zero
// Limits, i.e. scheduler defaults).
func ParseLimits(s string) (Limits, error) {
	var lim Limits
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Limits{}, fmt.Errorf("bad limit %q (want key=value)", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "weight":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Limits{}, fmt.Errorf("bad weight %q (want integer >= 1)", val)
			}
			lim.Weight = n
		case "rate":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				return Limits{}, fmt.Errorf("bad rate %q (want finite edges/sec >= 0)", val)
			}
			lim.Rate = f
		case "burst":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				return Limits{}, fmt.Errorf("bad burst %q (want finite edges >= 0)", val)
			}
			lim.Burst = f
		case "max-active":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return Limits{}, fmt.Errorf("bad max-active %q (want integer >= 0)", val)
			}
			lim.MaxInFlight = n
		case "max-queued":
			if val == "none" {
				lim.MaxQueued = NoQueue
				continue
			}
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return Limits{}, fmt.Errorf("bad max-queued %q (want integer >= 0, or none)", val)
			}
			if n == 0 {
				n = NoQueue
			}
			lim.MaxQueued = n
		case "ttl":
			d, err := time.ParseDuration(val)
			if err != nil {
				return Limits{}, fmt.Errorf("bad ttl %q: %v", val, err)
			}
			if d == 0 {
				d = -1 // explicit ttl=0 means never shed
			}
			lim.QueueTTL = d
		default:
			return Limits{}, fmt.Errorf("unknown limit key %q (want weight|rate|burst|max-active|max-queued|ttl)", key)
		}
	}
	return lim, nil
}
