"""Client-side caching substrate used by the cache-backed bindings."""
