package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"dltprivacy/internal/ordering"
)

// defaultRebalanceSkew is the load-skew factor a rebalance request without
// an explicit skew uses: shards loaded beyond this multiple of the mean shed
// channels.
const defaultRebalanceSkew = 2.0

// maxRebalanceBody bounds a rebalance request's body.
const maxRebalanceBody = 4 << 10

// rebalanceRequest asks for channel migrations. Either a manual move
// (Channel + To) or an automatic pass (Skew, 0 meaning defaultRebalanceSkew).
type rebalanceRequest struct {
	// Channel, when set, migrates that one channel to shard To.
	Channel string `json:"channel,omitempty"`
	// To is the target shard index for a manual move.
	To int `json:"to,omitempty"`
	// Skew is the load-skew factor for an automatic pass (> 1).
	Skew float64 `json:"skew,omitempty"`
}

// rebalanceNotice is the reply to a rebalance request: the migrations
// performed, empty when the topology was already balanced.
type rebalanceNotice struct {
	Migrations []ordering.Migration `json:"migrations"`
}

// adminRebalance serves POST /admin/rebalance on the operator listener: a
// JSON rebalanceRequest (an empty body runs one automatic pass) moves
// channels of sb, and the reply is a rebalanceNotice. Any other method is
// 405, a body that is not one rebalanceRequest is 400, and a move or pass the
// backend refuses is 422 with its error. The listener's network placement is
// its guard, as it is pprof's: the client edge serves no operator action.
func adminRebalance(sb *ordering.ShardedBackend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "rebalance: POST only", http.StatusMethodNotAllowed)
			return
		}
		req, err := decodeRebalance(http.MaxBytesReader(w, r.Body, maxRebalanceBody))
		if err != nil {
			http.Error(w, "rebalance: "+err.Error(), http.StatusBadRequest)
			return
		}
		moves := []ordering.Migration{}
		if req.Channel != "" {
			from := sb.ShardFor(req.Channel)
			err = sb.Migrate(req.Channel, req.To)
			if err == nil && from != req.To {
				moves = append(moves, ordering.Migration{Channel: req.Channel, From: from, To: req.To})
			}
		} else {
			skew := req.Skew
			if skew == 0 {
				skew = defaultRebalanceSkew
			}
			var done []ordering.Migration
			done, err = sb.Rebalance(skew)
			moves = append(moves, done...)
		}
		if err != nil {
			http.Error(w, "rebalance: "+err.Error(), http.StatusUnprocessableEntity)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		// The moves are done; a reply the operator cannot read has no one
		// else to tell.
		_ = json.NewEncoder(w).Encode(rebalanceNotice{Migrations: moves})
	}
}

// decodeRebalance reads one rebalanceRequest from body: nothing but white
// space is the zero request, and an unknown field, trailing data or a body
// over the bound is an error.
func decodeRebalance(body io.Reader) (rebalanceRequest, error) {
	var req rebalanceRequest
	b, err := io.ReadAll(body)
	if err != nil {
		return req, err
	}
	if len(bytes.TrimSpace(b)) == 0 {
		return req, nil
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return req, errors.New("trailing data after the request")
	}
	return req, nil
}
