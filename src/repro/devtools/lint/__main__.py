"""``python -m repro.devtools.lint`` entry point."""

from repro.devtools.lint import main

raise SystemExit(main())
