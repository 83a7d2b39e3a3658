package ingest_test

import (
	"testing"

	"pipemap/internal/ingest"
)

func TestNewBackendRejectsNil(t *testing.T) {
	if _, err := ingest.NewBackend(ingest.Config{}, nil, nil); err == nil {
		t.Fatal("NewBackend(nil) succeeded, want error")
	}
}
