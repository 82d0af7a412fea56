package main

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"

	"pimnw/internal/admission"
	"pimnw/internal/admission/config"
	"pimnw/internal/host"
	"pimnw/internal/obs"
)

// The /admin surface: live configuration and manual control over the
// admission stack.
//
//	GET  /admin/config  the live config in its canonical file form —
//	                    exactly what POST accepts back.
//	POST /admin/config  hot-reload the dynamic keys (config.Keys marks each
//	                    key static or dynamic; README has the table). A
//	                    change to a static key is rejected with 400 naming
//	                    it: those require a restart, and silently ignoring
//	                    an attempted change would be worse than refusing it.
//	GET  /admin/limits  rate-limiter, gate and shed statistics as JSON.
//	GET  /admin/shed    current shed level, the automatic level tracking
//	                    underneath, and any manual override.
//	POST /admin/shed    pin the shed level ({"level":"reject-bulk"}) or
//	                    return it to automatic control ({"level":"auto"}).
//
// When server.admin_token is configured, every /admin request must
// carry it (X-Admin-Token or Authorization: Bearer).
func (sv *server) registerAdmin(mux *http.ServeMux) {
	mux.HandleFunc("/admin/config", sv.adminAuth(sv.handleAdminConfig))
	mux.HandleFunc("/admin/limits", sv.adminAuth(sv.handleAdminLimits))
	mux.HandleFunc("/admin/shed", sv.adminAuth(sv.handleAdminShed))
}

func (sv *server) adminAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		token := sv.cfg.Load().Server.AdminToken
		if token != "" {
			got := r.Header.Get("X-Admin-Token")
			if got == "" {
				got = strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
			}
			if subtle.ConstantTimeCompare([]byte(got), []byte(token)) != 1 {
				http.Error(w, "admin token required", http.StatusUnauthorized)
				return
			}
		}
		h(w, r)
	}
}

func (sv *server) handleAdminConfig(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		sv.cfg.Load().WriteTo(w)
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := sv.reloadConfig(body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		io.WriteString(w, "ok\n")
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
	}
}

// reloadConfig parses and validates a full config file and applies its
// dynamic keys atomically-enough: reloads are serialized, and each
// component (limiter rates, gate sizing, shed thresholds, cache size
// limits) swaps its parameters race-free. The static keys must match the
// running config exactly.
func (sv *server) reloadConfig(body []byte) error {
	next, err := config.Parse(body)
	if err != nil {
		return err
	}
	if err := next.Validate(); err != nil {
		return err
	}
	sv.reloadMu.Lock()
	defer sv.reloadMu.Unlock()
	cur := sv.cfg.Load()
	changed := cur.Diff(next)
	for _, k := range changed {
		if k.Static {
			return fmt.Errorf("config reload: %s is static; restart to change it", k)
		}
	}
	if err := sv.rl.SetLimits(next.AdmissionLimits()); err != nil {
		return err
	}
	if err := sv.pressure.SetConfig(next.PressureConfig()); err != nil {
		return err
	}
	sv.gate.SetConfig(gateConfig(next))
	if c := sv.scfg.Cache; c != nil {
		c.SetLimits(next.Cache.MaxEntries, next.Cache.HotEntries)
	}
	sv.cfg.Store(next)
	obs.Default().Counter("alignd_config_reloads_total").Add(1)
	slog.Info("config reloaded", "kind", "reload", "changed", fmt.Sprint(changed))
	return nil
}

// shedStatus is the /admin/shed wire form.
type shedStatus struct {
	// Level is the effective level; Auto is what the pressure tracker
	// would apply absent an override.
	Level    string `json:"level"`
	Auto     string `json:"auto"`
	Override string `json:"override,omitempty"`
	// Transitions counts effective-level changes since startup.
	Transitions uint64 `json:"transitions"`
}

func (sv *server) shedStatus() shedStatus {
	st := shedStatus{
		Level:       sv.pressure.Level().String(),
		Auto:        sv.pressure.AutoLevel().String(),
		Transitions: sv.pressure.Transitions(),
	}
	if o, ok := sv.pressure.Override(); ok {
		st.Override = o.String()
	}
	return st
}

func (sv *server) handleAdminShed(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		var req struct {
			Level string `json:"level"`
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("decoding shed request: %v", err), http.StatusBadRequest)
			return
		}
		if req.Level == "auto" {
			sv.pressure.ClearOverride()
		} else {
			l, err := admission.ParseShedLevel(req.Level)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := sv.pressure.SetOverride(l); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sv.shedStatus())
}

func (sv *server) handleAdminLimits(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	out := struct {
		Limits admission.Stats `json:"limits"`
		Gate   host.GateStats  `json:"gate"`
		Shed   shedStatus      `json:"shed"`
	}{sv.rl.Stats(), sv.gate.Stats(), sv.shedStatus()}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}
