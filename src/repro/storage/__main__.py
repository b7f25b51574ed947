"""``python -m repro.storage migrate SRC DST``."""

from repro.storage.migrate import main

if __name__ == "__main__":
    raise SystemExit(main())
