"""End-to-end benchmark of the serving simulator; see README.md."""
