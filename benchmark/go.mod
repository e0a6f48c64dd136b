// The benchmark is a module of its own so that it builds with its own
// build file and stays out of the root module's ./... patterns. Its path
// sits under the root module's, which is what lets it import
// abft/internal/...; the replace line points at the checkout it runs in.
module abft/benchmark

go 1.23

require abft v0.0.0

replace abft => ../
