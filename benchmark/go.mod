// The benchmark is a module of its own, nested in the repo, so that it has
// its own build file and the root module's `go build ./... && go test ./...`
// never compiles or runs it. The module path keeps the `arbd/` prefix, which
// is what lets it import `arbd/internal/...` (the generator speaks the wire
// protocol through the same codecs the servers use).
module arbd/benchmark

go 1.22

require arbd v0.0.0

replace arbd => ../
