"""The repo's layered end-to-end benchmark (see README.md here)."""
