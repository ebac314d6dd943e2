"""Wall-clock benchmark of the GPS reproduction (see ``bench/README.md``)."""
