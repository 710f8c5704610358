from .io_cli import main

main()
