import checkout

checkout.import_alohagame()
