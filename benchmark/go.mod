// The benchmark is a module of its own so that the repository's build and
// tests (`go build ./... && go test ./...` at the root) never include it.
// Its path sits under `memcnn/`, which is what lets it import the
// `memcnn/internal/...` packages it measures.
module memcnn/benchmark

go 1.21

require memcnn v0.0.0

replace memcnn => ../
