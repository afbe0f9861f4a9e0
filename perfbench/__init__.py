"""End-to-end benchmark of the serving stack (see ``perfbench/README.md``)."""
